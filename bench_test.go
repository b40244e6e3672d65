// Benchmarks of the paper-reproduction experiments (one per table or
// figure; README's "Reproducing the paper" table lists them, each with
// its claim file or unit test). Beyond ns/op, each benchmark reports
// the complexity measures the paper is about as custom metrics:
// awake-max (worst-case awake complexity), awake-avg, and rounds.
//
// Run everything:
//
//	go test -bench=. -benchmem
package awakemis_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"awakemis"
	"awakemis/internal/core"
	"awakemis/internal/graph"
	"awakemis/internal/greedy"
	"awakemis/internal/ldt"
	"awakemis/internal/ldtmis"
	"awakemis/internal/sim"
	"awakemis/internal/vtree"
)

func benchRun(b *testing.B, algo awakemis.Algorithm, n int) {
	b.Helper()
	g := awakemis.GNP(n, 4/float64(n), int64(n))
	var last awakemis.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := awakemis.RunMIS(g, algo, awakemis.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Metrics
	}
	b.ReportMetric(float64(last.MaxAwake), "awake-max")
	b.ReportMetric(last.AvgAwake, "awake-avg")
	b.ReportMetric(float64(last.Rounds), "rounds")
}

// BenchmarkAwakeMIS regenerates E1 (Theorem 13): worst-case awake
// complexity of Awake-MIS across the size sweep.
func BenchmarkAwakeMIS(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(sizeName(n), func(b *testing.B) { benchRun(b, awakemis.AwakeMIS, n) })
	}
}

// BenchmarkAwakeMISRound regenerates E2 (Corollary 14).
func BenchmarkAwakeMISRound(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(sizeName(n), func(b *testing.B) { benchRun(b, awakemis.AwakeMISRound, n) })
	}
}

// BenchmarkLuby is the E7 baseline: Θ(log n) awake complexity.
func BenchmarkLuby(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(sizeName(n), func(b *testing.B) { benchRun(b, awakemis.Luby, n) })
	}
}

// BenchmarkNaiveGreedy is the E7/E3 baseline with O(I) awake.
func BenchmarkNaiveGreedy(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(sizeName(n), func(b *testing.B) { benchRun(b, awakemis.NaiveGreedy, n) })
	}
}

// BenchmarkVTMIS regenerates E3 (Lemma 10): O(log I) awake.
func BenchmarkVTMIS(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(sizeName(n), func(b *testing.B) { benchRun(b, awakemis.VTMIS, n) })
	}
}

// BenchmarkLDTMIS regenerates E4 (Lemma 11) on connected components.
func BenchmarkLDTMIS(b *testing.B) {
	for _, np := range []int{16, 64} {
		b.Run(sizeName(np), func(b *testing.B) {
			g := graph.Cycle(np)
			rng := rand.New(rand.NewSource(int64(np)))
			ids := make([]int64, np)
			seen := map[int64]bool{}
			for i := range ids {
				for {
					id := rng.Int63n(1<<40) + 1
					if !seen[id] {
						seen[id] = true
						ids[i] = id
						break
					}
				}
			}
			var last *sim.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, m, err := ldtmis.RunContext(context.Background(), g, ids, np, ldtmis.VariantAwake,
					sim.Config{Seed: int64(i), N: 1 << 16})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(float64(last.MaxAwake), "awake-max")
			b.ReportMetric(float64(last.Rounds), "rounds")
		})
	}
}

// BenchmarkResidualSparsity regenerates E5 (Lemma 2).
func BenchmarkResidualSparsity(b *testing.B) {
	n := 2048
	rng := rand.New(rand.NewSource(5))
	g := graph.GNP(n, 8/float64(n), rng)
	var last int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order := rng.Perm(n)
		last = greedy.ResidualMaxDegree(g, order, n/16, n)
	}
	b.ReportMetric(float64(last), "residual-deg")
	b.ReportMetric(16*2*math.Log(float64(n)), "lemma2-bound")
}

// BenchmarkShattering regenerates E6 (Lemma 3).
func BenchmarkShattering(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	h := graph.RandomRegular(2048, 8, rng)
	var last int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = greedy.MaxShatteredComponent(greedy.Shatter(h, rng))
	}
	b.ReportMetric(float64(last), "max-component")
	b.ReportMetric(12*math.Log(2048), "lemma3-bound")
}

// BenchmarkLDTConstruct regenerates E9 (Lemma 16): both constructions.
func BenchmarkLDTConstruct(b *testing.B) {
	for _, det := range []bool{false, true} {
		name := "awake"
		if det {
			name = "round"
		}
		b.Run(name, func(b *testing.B) {
			np := 32
			g := graph.Cycle(np)
			prog := func(env *sim.NodeEnv) sim.StepNode {
				return &ldtConstructNode{env: env, np: np, det: det}
			}
			var last *sim.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := sim.RunStepContext(context.Background(), g, prog, sim.Config{Seed: int64(i), N: 1 << 12})
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(float64(last.MaxAwake), "awake-max")
			b.ReportMetric(float64(last.Rounds), "rounds")
		})
	}
}

// ldtConstructNode runs LDT Hello and then one construction, from
// round 1, on a sim.Machine.
type ldtConstructNode struct {
	sim.Machine
	env   *sim.NodeEnv
	p     ldt.SProc
	np    int
	det   bool
	built bool
}

func (n *ldtConstructNode) Start(out *sim.Outbox) {
	n.Begin(out, func() {
		n.Yield(0, nil, func([]sim.Inbound) {
			n.p.Init(&n.Machine, n.env.Rand, 1, int64(1000+n.env.ID), n.np, n.construct)
			n.p.Hello() // always yields; construct runs once it completes
		})
	})
}

// construct starts the construction after Hello; it runs again when a
// construction that yielded completes, and then the node halts.
func (n *ldtConstructNode) construct() {
	if n.built {
		return
	}
	n.built = true
	if n.det {
		n.p.ConstructRound(ldt.DefaultRoundPhases(n.np))
	} else {
		n.p.ConstructAwake(ldt.DefaultAwakePhases(n.np))
	}
}

// BenchmarkColoring regenerates E11 (§7 extension): (Δ+1)-coloring in
// O(log n) awake rounds.
func BenchmarkColoring(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			g := awakemis.GNP(n, 4/float64(n), int64(n))
			var last awakemis.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := awakemis.RunTask(g, awakemis.TaskColoring, awakemis.Options{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Metrics
			}
			b.ReportMetric(float64(last.MaxAwake), "awake-max")
			b.ReportMetric(float64(last.Rounds), "rounds")
		})
	}
}

// BenchmarkAblationNP regenerates the NP axis of E10: phase length vs
// awake complexity.
func BenchmarkAblationNP(b *testing.B) {
	for _, np := range []int{16, 48} {
		b.Run("np="+itoa(np), func(b *testing.B) {
			g := awakemis.GNP(512, 4.0/512, 5)
			var last awakemis.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := awakemis.RunMIS(g, awakemis.AwakeMIS, awakemis.Options{
					Seed:   int64(i),
					Params: core.Params{C1: 4, DeltaPrime: 8, NP: np},
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Metrics
			}
			b.ReportMetric(float64(last.MaxAwake), "awake-max")
			b.ReportMetric(float64(last.Rounds), "rounds")
		})
	}
}

// BenchmarkMatching regenerates E12 (§7 extension): maximal matching
// with early-exit awake complexity.
func BenchmarkMatching(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			g := awakemis.GNP(n, 4/float64(n), int64(n))
			var last awakemis.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := awakemis.RunTask(g, awakemis.TaskMatching, awakemis.Options{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Metrics
			}
			b.ReportMetric(float64(last.MaxAwake), "awake-max")
			b.ReportMetric(last.AvgAwake, "awake-avg")
			b.ReportMetric(float64(last.Rounds), "rounds")
		})
	}
}

// BenchmarkCommSet measures the F1/F2 machinery itself.
func BenchmarkCommSet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i%4095 + 1
		_ = vtree.CommSet(k, 4096)
	}
}

// BenchmarkEngines runs every registered task on the stepped engine,
// one sub-benchmark per task. Reports are bit-identical at every
// worker count (the golden and worker-count tests assert it); only
// wall-clock differs. The task-grid measurements are recorded in
// BENCH_tasks.json:
//
//	go test -run xxx -bench 'BenchmarkEngines$' -benchtime 2x -count 3
func BenchmarkEngines(b *testing.B) {
	const n = 1024
	g := awakemis.GNP(n, 4/float64(n), int64(n))
	for _, task := range awakemis.TaskNames() {
		b.Run(task, func(b *testing.B) {
			var last awakemis.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := awakemis.RunTask(g, task, awakemis.Options{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				last = rep.Metrics
			}
			b.ReportMetric(float64(last.MaxAwake), "awake-max")
			b.ReportMetric(float64(last.Rounds), "rounds")
		})
	}
}

// BenchmarkSimulatorFlood measures raw engine throughput: every node
// of a 16×16 grid broadcasts in each of 10 rounds.
func BenchmarkSimulatorFlood(b *testing.B) {
	g := graph.Grid(16, 16)
	prog := func(env *sim.NodeEnv) sim.StepNode { return floodNode{} }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunStepContext(context.Background(), g, prog, sim.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// floodNode broadcasts in rounds 0..9 and halts.
type floodNode struct{}

func (floodNode) Start(out *sim.Outbox) { out.Broadcast(floodMsg{}) }

func (floodNode) OnWake(round int64, _ []sim.Inbound, out *sim.Outbox) (int64, bool) {
	if round == 9 {
		return 0, true
	}
	out.Broadcast(floodMsg{})
	return round + 1, false
}

type floodMsg struct{}

func (floodMsg) Bits() int { return 1 }

func sizeName(n int) string {
	switch {
	case n >= 1024 && n%1024 == 0:
		return "n=" + itoa(n/1024) + "k"
	default:
		return "n=" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
