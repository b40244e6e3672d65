package study

import (
	"math"
	"testing"
)

func TestGridIndexing(t *testing.T) {
	g := Grid{Families: 2, Tasks: 3, Sizes: 4, Trials: 5}
	if g.Cells() != 24 || g.Specs() != 120 {
		t.Fatalf("cells=%d specs=%d", g.Cells(), g.Specs())
	}
	// CellIndex enumerates densely and in family-major order.
	seen := make([]bool, g.Cells())
	last := -1
	for f := 0; f < g.Families; f++ {
		for task := 0; task < g.Tasks; task++ {
			for s := 0; s < g.Sizes; s++ {
				i := g.CellIndex(f, task, s)
				if i != last+1 {
					t.Fatalf("CellIndex(%d,%d,%d) = %d, want %d", f, task, s, i, last+1)
				}
				last = i
				seen[i] = true
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("cell %d never enumerated", i)
		}
	}
}

func TestTrialSeeds(t *testing.T) {
	g := Grid{Families: 2, Tasks: 3, Sizes: 2, Trials: 3}
	// Task never enters the derivation; family key, node count, trial,
	// and the root seed all do.
	base := g.TrialSeed(7, "gnp", 64, 0)
	if got := g.TrialSeed(7, "gnp", 64, 0); got != base {
		t.Error("TrialSeed not deterministic")
	}
	distinct := map[int64]bool{base: true}
	for _, v := range []struct {
		key      string
		n, trial int
	}{{"gnp(p=0.01)", 64, 0}, {"gnp", 256, 0}, {"gnp", 64, 1}} {
		s := g.TrialSeed(7, v.key, v.n, v.trial)
		if distinct[s] {
			t.Errorf("seed collision varying (family,n,trial) to %+v", v)
		}
		distinct[s] = true
	}
	if g.TrialSeed(8, "gnp", 64, 0) == base {
		t.Error("root seed ignored")
	}
	// The derivation ignores the grid's shape entirely: the same
	// nominal cell derives the same seed in every study that contains
	// it, which is what lets overlapping grids share the daemon cache
	// and keeps sweeps paired however the size list is sliced.
	other := Grid{Families: 1, Tasks: 1, Sizes: 5, Trials: 9}
	if other.TrialSeed(7, "gnp", 64, 0) != base {
		t.Error("TrialSeed depends on grid shape")
	}
}

func TestAggregatorOrderIndependence(t *testing.T) {
	// Feeding trials in different orders must produce identical
	// summaries — the property that makes parallel study artifacts
	// byte-identical.
	build := func(order []int) *Aggregator {
		a := NewAggregator(1, 3)
		vals := []map[string]float64{
			{"max_awake": 5, "rounds": 100.25},
			{"max_awake": 7, "rounds": 101.5},
			{"max_awake": 6, "rounds": 99.125},
		}
		for _, trial := range order {
			a.AddTrial(0, trial, vals[trial])
		}
		return a
	}
	fwd := build([]int{0, 1, 2})
	rev := build([]int{2, 0, 1})
	if !fwd.Complete(0) || !rev.Complete(0) {
		t.Fatal("cells not complete")
	}
	for _, metric := range []string{"max_awake", "rounds"} {
		if fwd.Summary(0, metric) != rev.Summary(0, metric) {
			t.Errorf("%s summary depends on arrival order", metric)
		}
	}
	if fwd.Mean(0, "max_awake") != 6 {
		t.Errorf("mean = %v", fwd.Mean(0, "max_awake"))
	}
}

func TestAggregatorGuards(t *testing.T) {
	a := NewAggregator(1, 1)
	drift := NewAggregator(1, 3)
	drift.AddTrial(0, 0, map[string]float64{"x": 1, "y": 2})
	for _, bad := range []func(){
		func() { a.AddTrial(1, 0, nil) },
		func() { a.AddTrial(0, 1, nil) },
		func() { a.Summary(0, "x") },                                        // incomplete
		func() { drift.AddTrial(0, 1, map[string]float64{"x": 1}) },         // metric vanished
		func() { drift.AddTrial(0, 2, map[string]float64{"x": 1, "z": 3}) }, // metric appeared
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestFitSeries(t *testing.T) {
	xs := []float64{64, 256, 1024, 4096, 16384}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2 + 3*math.Log2(x) + 0.01*float64(i%2)
	}
	fit := FitSeries(xs, ys, 200, 11)
	if fit.Model != "log n" {
		t.Fatalf("model = %q (fit %+v)", fit.Model, fit)
	}
	if !(fit.BLo <= fit.B && fit.B <= fit.BHi) {
		t.Errorf("point estimate %v outside CI [%v, %v]", fit.B, fit.BLo, fit.BHi)
	}
	if fit.RunnerUp == "" || fit.RunnerUp == fit.Model {
		t.Errorf("runner-up = %q", fit.RunnerUp)
	}
	if fit2 := FitSeries(xs, ys, 200, 11); fit != fit2 {
		t.Error("FitSeries not deterministic")
	}
}

func TestCSV(t *testing.T) {
	out := CSV([]string{"a", "b"}, [][]string{{"1", "x,y"}, {"2", `say "hi"`}})
	want := "a,b\n1,\"x,y\"\n2,\"say \"\"hi\"\"\"\n"
	if out != want {
		t.Errorf("CSV = %q, want %q", out, want)
	}
}
