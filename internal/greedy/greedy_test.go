package greedy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"awakemis/internal/graph"
	"awakemis/internal/verify"
)

func TestMISValidOnFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := map[string]*graph.Graph{
		"cycle":    graph.Cycle(31),
		"path":     graph.Path(17),
		"complete": graph.Complete(12),
		"star":     graph.Star(20),
		"gnp":      graph.GNP(100, 0.1, rng),
		"tree":     graph.RandomTree(60, rng),
		"grid":     graph.Grid(8, 9),
		"empty":    graph.New(10),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			in, order := MIS(g, rng)
			if err := verify.CheckMIS(g, in); err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckLFMIS(g, in, order); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCompleteGraphPicksFirst(t *testing.T) {
	g := graph.Complete(8)
	order := []int{5, 2, 0, 1, 3, 4, 6, 7}
	in := WithOrder(g, order)
	if !in[5] || verify.Size(in) != 1 {
		t.Errorf("complete graph MIS must be exactly the first node; got %v", in)
	}
}

// TestComposability verifies the composability property of §3 for many
// random (graph, order, t) triples.
func TestComposability(t *testing.T) {
	f := func(seed int64, nn, tt uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%60) + 1
		g := graph.GNP(n, 0.25, rng)
		order := rng.Perm(n)
		cut := int(tt) % (n + 1)
		whole := WithOrder(g, order)
		composed := Compose(g, order, cut)
		for v := range whole {
			if whole[v] != composed[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLemma2ResidualSparsity checks the residual sparsity bound: after
// processing t of n nodes, the residual graph among the first t′ has
// max degree at most (t′/t)·ln(n/ε) — we test with ε = 1/n, i.e. bound
// 2·(t′/t)·ln n, over several random graphs: dense G(600, 0.08), and
// sparse G(n, 8/n) with (t, t′) = (n/16, n/4), (n/8, n) and (n/4, n).
func TestLemma2ResidualSparsity(t *testing.T) {
	type window struct{ t, tp int }
	type graphs struct {
		n, trials int
		p         float64
		seed      int64
		windows   []window
	}
	sparse := func(n int) graphs {
		return graphs{n, 3, 8 / float64(n), 6, []window{{n / 16, n / 4}, {n / 8, n}, {n / 4, n}}}
	}
	for _, tc := range []struct {
		name   string
		inputs []graphs
	}{
		{"dense", []graphs{{600, 5, 0.08, 7, []window{{50, 100}, {50, 600}, {100, 300}, {200, 600}}}}},
		{"sparse", []graphs{sparse(256), sparse(4096)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, c := range tc.inputs {
				rng := rand.New(rand.NewSource(c.seed))
				for trial := 0; trial < c.trials; trial++ {
					g := graph.GNP(c.n, c.p, rng)
					order := rng.Perm(c.n)
					for _, w := range c.windows {
						got := ResidualMaxDegree(g, order, w.t, w.tp)
						bound := float64(w.tp) / float64(w.t) * 2 * math.Log(float64(c.n))
						if float64(got) > bound {
							t.Errorf("G(%d, %.4f) trial %d t=%d t'=%d: residual max degree %d > bound %.1f",
								c.n, c.p, trial, w.t, w.tp, got, bound)
						}
					}
				}
			}
		})
	}
}

// TestLemma2Monotone sanity-checks that processing a larger prefix
// leaves a (weakly) sparser residual graph on the same suffix window.
func TestLemma2Monotone(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.GNP(400, 0.2, rng)
	order := rng.Perm(400)
	dSmall := ResidualMaxDegree(g, order, 20, 400)
	dLarge := ResidualMaxDegree(g, order, 200, 400)
	if dLarge > dSmall {
		t.Errorf("residual degree after t=200 (%d) exceeds after t=20 (%d)", dLarge, dSmall)
	}
}

// TestLemma3Shattering checks that partitioning a bounded-degree graph
// into 2Δ random classes leaves components of size ≤ 6·ln(n/ε), tested
// with ε = 1/n (bound 12 ln n), on random regular graphs: Δ = 6 at
// n = 800, and Δ = 4 and 8 over n = 32 to 4,096.
func TestLemma3Shattering(t *testing.T) {
	type input struct{ n, d, trials int }
	var sweep []input
	for _, n := range []int{32, 64, 256, 1024, 4096} {
		sweep = append(sweep, input{n, 4, 1}, input{n, 8, 1})
	}
	for _, tc := range []struct {
		name   string
		seed   int64
		inputs []input
	}{
		{"degree-6", 3, []input{{800, 6, 5}}},
		{"degree-4-and-8", 6, sweep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			for _, in := range tc.inputs {
				for trial := 0; trial < in.trials; trial++ {
					h := graph.RandomRegular(in.n, in.d, rng)
					sizes := Shatter(h, rng)
					if len(sizes) != 2*h.MaxDegree() {
						t.Fatalf("expected 2Δ classes, got %d", len(sizes))
					}
					got := MaxShatteredComponent(sizes)
					bound := 12 * math.Log(float64(h.N()))
					if float64(got) > bound {
						t.Errorf("n=%d d=%d trial %d: max shattered component %d > bound %.1f",
							in.n, in.d, trial, got, bound)
					}
				}
			}
		})
	}
}

func TestShatterEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Empty graph: Δ forced to 1, two classes, all singleton components.
	sizes := Shatter(graph.New(5), rng)
	if len(sizes) != 2 {
		t.Fatalf("classes = %d, want 2", len(sizes))
	}
	if got := MaxShatteredComponent(sizes); got != 1 {
		t.Errorf("max component = %d, want 1", got)
	}
	if got := MaxShatteredComponent([][]int{{}, {}}); got != 0 {
		t.Errorf("all-empty classes: max = %d, want 0", got)
	}
}

func TestPrefixAndResidual(t *testing.T) {
	g := graph.Path(5)
	order := []int{0, 1, 2, 3, 4}
	mt := Prefix(g, order, 1) // {0}
	if !mt[0] || verify.Size(mt) != 1 {
		t.Fatalf("prefix MIS = %v", mt)
	}
	res := Residual(g, order, mt, 5)
	// 0 in MIS, 1 blocked; 2,3,4 remain.
	want := []int{2, 3, 4}
	if len(res) != len(want) {
		t.Fatalf("residual = %v, want %v", res, want)
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("residual = %v, want %v", res, want)
		}
	}
	// t beyond length is clipped.
	if got := Prefix(g, order, 99); verify.Size(got) != 3 {
		t.Errorf("full prefix MIS size = %d, want 3", verify.Size(got))
	}
}

func TestRandomOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	order := RandomOrder(10, rng)
	seen := make([]bool, 10)
	for _, v := range order {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("not a permutation: %v", order)
		}
		seen[v] = true
	}
}
