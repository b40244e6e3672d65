package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"awakemis/internal/graph"
	"awakemis/internal/ldtmis"
	"awakemis/internal/sim"
	"awakemis/internal/verify"
)

func testParams() Params {
	// Tighter-than-default constants keep test runtimes low while still
	// satisfying every high-probability bound at these sizes.
	return Params{C1: 4, DeltaPrime: 8, NP: 24}
}

func TestAwakeMISValidOnFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := map[string]*graph.Graph{
		"single":   graph.New(1),
		"pair":     graph.Path(2),
		"cycle":    graph.Cycle(48),
		"path":     graph.Path(33),
		"star":     graph.Star(40),
		"tree":     graph.RandomTree(64, rng),
		"gnp":      graph.GNP(96, 0.05, rng),
		"grid":     graph.Grid(8, 8),
		"isolated": graph.New(12),
		"disjoint": graph.DisjointUnion(graph.Cycle(9), graph.Complete(5), graph.New(3)),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			res, m, err := RunContext(context.Background(), g, testParams(), sim.Config{Seed: 11, Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckMIS(g, res.InMIS); err != nil {
				t.Fatal(err)
			}
			if m.MaxAwake < 1 {
				t.Error("nobody was awake")
			}
		})
	}
}

func TestAwakeMISRoundVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.GNP(60, 0.06, rng)
	p := testParams()
	p.Variant = ldtmis.VariantRound
	res, _, err := RunContext(context.Background(), g, p, sim.Config{Seed: 13, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckMIS(g, res.InMIS); err != nil {
		t.Fatal(err)
	}
}

func TestAwakeMISDenseGraph(t *testing.T) {
	// Dense graphs stress the batching: nearly everything is decided by
	// the first few phases' MIS neighborhoods.
	g := graph.Complete(30)
	res, _, err := RunContext(context.Background(), g, testParams(), sim.Config{Seed: 17, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckMIS(g, res.InMIS); err != nil {
		t.Fatal(err)
	}
	if verify.Size(res.InMIS) != 1 {
		t.Errorf("complete graph MIS size %d, want 1", verify.Size(res.InMIS))
	}
}

// TestTheorem13AwakeComplexity measures the headline claim: worst-case
// awake complexity stays within the O(log log n)-regime budget while n
// quadruples; in particular it must stay far below Θ(log n)·the naive
// constant and below any linear-in-n quantity.
func TestTheorem13AwakeComplexity(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	var awakes []int64
	for _, n := range []int{64, 256} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.GNP(n, 4/float64(n), rng)
		_, m, err := RunContext(context.Background(), g, testParams(), sim.Config{Seed: int64(n), Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		awakes = append(awakes, m.MaxAwake)
		// Constants dominate at these sizes; what matters is that the
		// count is bounded and essentially flat in n (growth check
		// below). Guard against anything in the Θ(n) or Θ(√n·poly)
		// regimes sneaking in.
		if m.MaxAwake > 2000 {
			t.Errorf("n=%d: MaxAwake %d implausibly large", n, m.MaxAwake)
		}
	}
	// Quadrupling n must grow awake complexity by far less than the 2x
	// a Θ(log n) algorithm would show: allow at most ~35%.
	if g := float64(awakes[1]) / float64(awakes[0]); g > 1.35 {
		t.Errorf("awake growth %0.2fx from n=64 to n=256 is not log log-like (%v)", g, awakes)
	}
}

func TestScheduleBasics(t *testing.T) {
	p := testParams().WithDefaults(1024)
	s := NewSchedule(1024, p, sim.DefaultBandwidth(1024))
	if s.Levels < 1 || s.TotalPhases != s.Levels*s.BatchesPer {
		t.Fatalf("schedule inconsistent: %+v", s)
	}
	if s.PhaseStart(1) != 0 {
		t.Errorf("PhaseStart(1) = %d", s.PhaseStart(1))
	}
	if s.PhaseStart(2)-s.PhaseStart(1) != s.PhaseSpan {
		t.Error("phase spacing wrong")
	}
	if s.TotalRounds() != int64(s.TotalPhases)*s.PhaseSpan {
		t.Error("TotalRounds wrong")
	}
}

func TestSampleBatchDistribution(t *testing.T) {
	p := testParams().WithDefaults(4096)
	s := NewSchedule(4096, p, sim.DefaultBandwidth(4096))
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, s.Levels+1)
	trials := 200000
	for i := 0; i < trials; i++ {
		level, j := s.SampleBatch(rng.Float64(), rng.Float64())
		if level < 1 || level > s.Levels || j < 1 || j > s.BatchesPer {
			t.Fatalf("sample out of range: (%d,%d)", level, j)
		}
		counts[level]++
	}
	// Level populations must grow geometrically: each level about twice
	// the previous (until the final capped level), per the §6 batching
	// argument.
	for i := 2; i+1 < s.Levels; i++ {
		if counts[i] < 1000 || counts[i+1] < 1000 {
			continue
		}
		ratio := float64(counts[i+1]) / float64(counts[i])
		if ratio < 1.5 || ratio > 2.5 {
			t.Errorf("level %d -> %d ratio %.2f, want ~2 (counts %v)", i, i+1, ratio, counts)
		}
	}
	// The phase map g must be a lexicographic bijection.
	seen := map[int]bool{}
	for l := 1; l <= s.Levels; l++ {
		for j := 1; j <= s.BatchesPer; j++ {
			ph := s.Phase(l, j)
			if ph < 1 || ph > s.TotalPhases || seen[ph] {
				t.Fatalf("Phase(%d,%d) = %d invalid", l, j, ph)
			}
			seen[ph] = true
		}
	}
}

func TestWithDefaults(t *testing.T) {
	p := Params{}.WithDefaults(1024)
	if p.C1 == 0 || p.DeltaPrime == 0 || p.NP == 0 || p.IDSpace == 0 {
		t.Fatalf("defaults not filled: %+v", p)
	}
	want := int(math.Ceil(6 * math.Log(1024)))
	if p.DeltaPrime != want {
		t.Errorf("DeltaPrime = %d, want %d", p.DeltaPrime, want)
	}
	// Explicit values survive.
	q := Params{C1: 2, DeltaPrime: 5, NP: 9, IDSpace: 100}.WithDefaults(1024)
	if q.C1 != 2 || q.DeltaPrime != 5 || q.NP != 9 || q.IDSpace != 100 {
		t.Errorf("explicit params overwritten: %+v", q)
	}

	// The default ID space is N³ with a 2¹⁶ floor while N³ fits in
	// int64, saturates from N = 2²¹ on, and never decreases in N.
	ns := []int{0, 1, 2, 40, 41, 1024, 1 << 20, 2_097_150, 2_097_151,
		2_097_152, 2_097_153, 1 << 22, 10_000_000, math.MaxInt32, 1 << 40, math.MaxInt64}
	prev := int64(0)
	for _, n := range ns {
		got := Params{}.WithDefaults(n).IDSpace
		want := int64(math.MaxInt64)
		if n < 1<<21 {
			nn := int64(max(n, 2))
			want = max(nn*nn*nn, 1<<16)
		}
		if got != want {
			t.Errorf("N = %d: IDSpace = %d, want %d", n, got, want)
		}
		if got < 1<<16 {
			t.Errorf("N = %d: IDSpace = %d, below 2^16", n, got)
		}
		if got < prev {
			t.Errorf("N = %d: IDSpace = %d, below %d at a smaller N", n, got, prev)
		}
		prev = got
	}
}

func TestAwakeMISDeterministicReplay(t *testing.T) {
	g := graph.Cycle(32)
	run := func() *Result {
		res, _, err := RunContext(context.Background(), g, testParams(), sim.Config{Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for v := range a.InMIS {
		if a.InMIS[v] != b.InMIS[v] || a.Batch[v] != b.Batch[v] {
			t.Fatalf("replay diverged at node %d", v)
		}
	}
}

func TestAwakeMISRespectsCongest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.GNP(50, 0.1, rng)
	_, m, err := RunContext(context.Background(), g, testParams(), sim.Config{Seed: 29, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxMessageBits > sim.DefaultBandwidth(50) {
		t.Errorf("max message %d bits exceeds bandwidth %d",
			m.MaxMessageBits, sim.DefaultBandwidth(50))
	}
}

// TestScheduleFits checks ScheduleFits against the exact horizon on
// both sides of the 2⁴⁰-round cap, wherever NewSchedule's arithmetic is
// in range, and checks that it rejects constants whose horizon or span
// would overflow int64, without panicking.
func TestScheduleFits(t *testing.T) {
	const limit = sim.DefaultMaxRounds
	for _, n := range []int{1, 64, 100000} {
		for _, bw := range []int{0, 2, 1 << 20} {
			for _, v := range []ldtmis.Variant{ldtmis.VariantAwake, ldtmis.VariantRound} {
				for _, np := range []int{1, 7, 300, 1 << 12, 1 << 16, 1 << 20} {
					rn, rbw := resolve(n, bw)
					p := Params{NP: np, Variant: v, DeltaPrime: 1}
					s := NewSchedule(rn, p, rbw)
					// The horizon is 2·Levels·DeltaPrime·PhaseSpan: the
					// largest DeltaPrime that fits follows exactly.
					most := int(limit / (2 * int64(s.Levels) * s.PhaseSpan))
					for _, d := range []int{most, most + 1} {
						if d < 1 {
							continue
						}
						p.DeltaPrime = d
						want := NewSchedule(rn, p, rbw).TotalRounds() <= limit
						if want != (d == most) {
							t.Fatalf("n=%d bw=%d %v np=%d: horizon at delta_prime %d is off the cap's edge", n, bw, v, np, d)
						}
						if got := ScheduleFits(n, p, bw); got != want {
							t.Errorf("n=%d bw=%d %v np=%d delta_prime=%d: ScheduleFits = %v, want %v", n, bw, v, np, d, got, want)
						}
					}
				}
			}
		}
	}
	for _, p := range []Params{
		{NP: 1e9},
		{NP: 1 << 33},
		{NP: limit - 1},
		{NP: math.MaxInt},
		{DeltaPrime: limit/2 + 1},
		{DeltaPrime: math.MaxInt},
		{NP: math.MaxInt, DeltaPrime: math.MaxInt, Variant: ldtmis.VariantRound},
	} {
		for _, bw := range []int{0, 1, 2, math.MaxInt} {
			if ScheduleFits(64, p, bw) {
				t.Errorf("ScheduleFits(64, %+v, %d) = true", p, bw)
			}
		}
	}
}
