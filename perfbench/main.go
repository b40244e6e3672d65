// Command perfbench is the repository benchmark. One invocation runs
// one closed-loop workload (flagship, big-graph or service) over a
// fixed op list derived from -seed, checks every output, and prints
// one JSON object as the last line of its standard output: the
// end-to-end metrics or, with -trace 1, the per-layer metrics of a
// traced pass. run.sh builds and runs it from a checkout; NOTES.md
// describes the workloads and the metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// processStart anchors setup_s. It is set when this package
// initializes, after the runtime and the packages it imports have
// initialized, which takes a few milliseconds today.
var processStart = time.Now()

// defaultSeed is the seed reference.json holds digests for.
const defaultSeed = 1

// config is one invocation's settings.
type config struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// Size is "full", or "tiny" (n = 256, one timed op) for smoke tests.
	Size string `json:"size"`
	// Corrupt is the index of the timed op whose output is corrupted
	// before it is checked, or -1.
	Corrupt int `json:"corrupt"`
	// Work is the directory for the run record, the spans and the
	// sessions' store directories.
	Work string `json:"-"`
	// WriteRef, when set, names the reference file this run's digests
	// are merged into.
	WriteRef string `json:"-"`
}

func (c config) validate() error {
	switch {
	case c.Workload != "flagship" && c.Workload != "big-graph" && c.Workload != "service":
		return fmt.Errorf("unknown workload %q (want flagship, big-graph or service)", c.Workload)
	case c.Size != "full" && c.Size != "tiny":
		return fmt.Errorf("unknown size %q (want full or tiny)", c.Size)
	case c.Seconds < 1:
		return fmt.Errorf("seconds must be at least 1, got %d", c.Seconds)
	case c.WriteRef != "" && c.Seed != defaultSeed:
		return fmt.Errorf("reference digests are recorded at the default seed %d only", defaultSeed)
	}
	return nil
}

func main() {
	cfg := config{Work: ".bench_build", Corrupt: -1}
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run: flagship, big-graph or service")
	flag.Int64Var(&cfg.Seed, "seed", defaultSeed, "seed the op list is derived from")
	flag.IntVar(&cfg.Seconds, "seconds", 25, "nominal length of the timed pass: it sets the op count and never cuts a run short")
	flag.IntVar(&trace, "trace", 0, "0 prints end-to-end metrics; 1 adds a traced pass and prints per-layer metrics")
	flag.StringVar(&cfg.Size, "size", "full", `"full", or "tiny" (n = 256, one timed op) for a smoke test`)
	flag.StringVar(&cfg.WriteRef, "write-reference", "", "merge this run's output digests into this reference file")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}
	cfg.Trace = trace == 1
	rec, err := run(cfg)
	if err == nil {
		err = rec.save(cfg.Work)
	}
	if err == nil {
		err = rec.print(os.Stdout)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
