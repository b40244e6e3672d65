package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"

	"awakemis"
)

// host is the machine a run measured on, with the speed index taken at
// the run's start and end.
type host struct {
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPUModel     string  `json:"cpu_model"`
	GoVersion    string  `json:"go_version"`
	CalibStartMS float64 `json:"calib_start_ms"`
	CalibEndMS   float64 `json:"calib_end_ms"`
}

func hostInfo() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel returns the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibSink keeps the calibration kernel's result live.
var calibSink uint64

// calibrate times a fixed kernel that uses nothing from the repository
// — fill 32 MiB from a xorshift stream, then chase 2²¹ dependent loads
// through it — and returns its wall time in ms. Only the host's CPU and
// memory speed move it, so comparing it across runs tells host drift
// from a regression.
func calibrate() float64 {
	const words = 1 << 23
	buf := make([]uint32, words)
	start := time.Now()
	x := uint64(88172645463325252)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = uint32(x)
	}
	var idx uint32
	var sum uint64
	for i := range uint32(1 << 21) {
		idx = buf[idx&(words-1)] ^ i
		sum += uint64(idx)
	}
	calibSink = sum
	return millis(time.Since(start))
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system
	maxRSS  int64         // KiB
	alloc   uint64        // heap bytes allocated, cumulative
	gcs     uint32
	pauseNS uint64
	gcCPU   float64 // runtime/metrics CPU-second estimates
	allCPU  float64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(cpu)
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSS:  ru.Maxrss,
		alloc:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		pauseNS: ms.PauseTotalNs,
		gcCPU:   cpu[0].Value.Float64(),
		allCPU:  cpu[1].Value.Float64(),
	}
}

// spent sums the resource use of a pass's timed ops, each read between
// two usage snapshots, so untimed work between the ops is left out.
type spent struct {
	wall, cpu     time.Duration
	alloc         uint64
	gcs           uint32
	pauseNS       uint64
	gcCPU, allCPU float64
}

func (s *spent) add(before, after usage) {
	s.wall += after.at.Sub(before.at)
	s.cpu += after.cpu - before.cpu
	s.alloc += after.alloc - before.alloc
	s.gcs += after.gcs - before.gcs
	s.pauseNS += after.pauseNS - before.pauseNS
	s.gcCPU += after.gcCPU - before.gcCPU
	s.allCPU += after.allCPU - before.allCPU
}

// latencies are request round trips in ms, by request class.
type latencies struct{ hit, storeHit, cold []float64 }

// seedFor derives the i-th seed of a labeled stream from the run's
// -seed. Zero is skipped: a zero graph seed means "use the run seed".
func seedFor(seed int64, label string, i int) int64 {
	if s := awakemis.DeriveSeed(seed, "perfbench/"+label, int64(i)); s != 0 {
		return s
	}
	return 1
}

func opLabel(i int, tr *tracer) string {
	switch {
	case i < 0:
		return "warm-up"
	case tr != nil:
		return fmt.Sprintf("traced op %d", i)
	}
	return fmt.Sprintf("op %d", i)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	return s[max(0, int(math.Ceil(q*float64(len(s))))-1)]
}
