// BenchmarkObserverOverhead prices the round-telemetry hook: the same
// run with Options.Observer nil ("off") versus attached ("on"). The
// hook runs once per executed round, never per node or per message, so
// its price is a cost per round. Luby executes 8–10 rounds at any n,
// which bounds the hook's share of a dense run; CI's bench job holds
// the median Luby n=1M ratio over 5 runs within a 5% budget. Awake-MIS
// at n=4k keeps about 3.5 nodes awake per executed round, so its pair
// prices the hook where rounds are sparse and the per-round cost
// shows; CI prints that ratio without a gate.
//
// Each iteration runs the off and the on run of one seed back to back,
// alternating which goes first, so that neither half always runs first
// after the graph is generated or always pays for the other's garbage.
// The on/off metric is the ratio of the two halves' summed times; an
// even iteration count balances the order.
//
//	go test -bench 'BenchmarkObserverOverhead' -benchtime 4x -count 5
package awakemis_test

import (
	"testing"
	"time"

	"awakemis"
)

// countingObserver is the cheapest possible consumer: the benchmark
// measures the engines' cost of producing RoundStats, not any sink.
type countingObserver struct{ rounds int64 }

func (o *countingObserver) ObserveRound(awakemis.RoundStat) { o.rounds++ }

func BenchmarkObserverOverhead(b *testing.B) {
	for _, c := range []struct {
		name string
		algo awakemis.Algorithm
		n    int
	}{
		{"n=4k", awakemis.Luby, 4096},
		{"n=1M", awakemis.Luby, 1 << 20},
		{"awake-mis/n=4k", awakemis.AwakeMIS, 4096},
	} {
		b.Run(c.name, func(b *testing.B) {
			n := c.n
			g := awakemis.GNP(n, 4/float64(n), int64(n))
			obs := &countingObserver{}
			var elapsed [2]time.Duration // off, on
			var last awakemis.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range 2 {
					half := (i + k) % 2 // off first on even iterations
					opt := awakemis.Options{Seed: int64(i)}
					if half == 1 {
						opt.Observer = obs
					}
					start := time.Now()
					res, err := awakemis.RunMIS(g, c.algo, opt)
					elapsed[half] += time.Since(start)
					if err != nil {
						b.Fatal(err)
					}
					last = res.Metrics
				}
			}
			if obs.rounds == 0 {
				b.Fatal("observer saw no rounds")
			}
			b.ReportMetric(float64(elapsed[1])/float64(elapsed[0]), "on/off")
			b.ReportMetric(float64(last.Rounds), "rounds")
		})
	}
}
