// BenchmarkObserverOverhead prices the round-telemetry hook: the same
// run with Options.Observer nil ("off") versus attached ("on"). The
// hook runs once per executed round, never per node or per message, so
// its price is a cost per round. Luby executes 8–10 rounds at any n,
// which bounds the hook's share of a dense run; CI's bench job holds
// the Luby n=1M gap within a 5% ns/op budget. Awake-MIS at n=4k keeps
// about 3.5 nodes awake per executed round, so its pair prices the hook
// where rounds are sparse and the per-round cost shows; CI prints that
// ratio without a gate.
//
//	go test -bench 'BenchmarkObserverOverhead' -benchmem
package awakemis_test

import (
	"testing"

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
			run := func(b *testing.B, obs awakemis.RoundObserver) {
				var last awakemis.Metrics
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := awakemis.RunMIS(g, c.algo,
						awakemis.Options{Seed: int64(i), Observer: obs})
					if err != nil {
						b.Fatal(err)
					}
					last = res.Metrics
				}
				b.ReportMetric(float64(last.Rounds), "rounds")
			}
			b.Run("off", func(b *testing.B) { run(b, nil) })
			b.Run("on", func(b *testing.B) {
				obs := &countingObserver{}
				run(b, obs)
				if obs.rounds == 0 {
					b.Fatal("observer saw no rounds")
				}
			})
		})
	}
}
