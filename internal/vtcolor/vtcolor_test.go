package vtcolor

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"awakemis/internal/graph"
	"awakemis/internal/sim"
	"awakemis/internal/verify"
	"awakemis/internal/vtree"
)

func permIDs(n int, rng *rand.Rand) ([]int, []int) {
	perm := rng.Perm(n)
	ids := make([]int, n)
	order := make([]int, n)
	for v, p := range perm {
		ids[v] = p + 1
		order[p] = v
	}
	return ids, order
}

func TestColoringValidOnFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := map[string]*graph.Graph{
		"cycle":     graph.Cycle(25),
		"path":      graph.Path(12),
		"complete":  graph.Complete(9),
		"star":      graph.Star(15),
		"gnp":       graph.GNP(60, 0.1, rng),
		"tree":      graph.RandomTree(40, rng),
		"bipartite": graph.CompleteBipartite(5, 7),
		"barbell":   graph.Barbell(5, 3),
		"empty":     graph.New(6),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			ids, order := permIDs(g.N(), rng)
			res, m, err := RunContext(context.Background(), g, ids, g.N(), sim.Config{Seed: 3, Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckColoring(g, res.Color); err != nil {
				t.Fatal(err)
			}
			// The output equals the sequential greedy coloring.
			want := Greedy(g, order)
			for v := range want {
				if res.Color[v] != want[v] {
					t.Fatalf("node %d color %d, greedy says %d", v, res.Color[v], want[v])
				}
			}
			// Awake complexity O(log I).
			if m.MaxAwake > int64(vtree.Depth(g.N())+2) {
				t.Errorf("MaxAwake %d exceeds O(log I) bound", m.MaxAwake)
			}
		})
	}
}

func TestCompleteUsesExactlyNColors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.Complete(8)
	ids, _ := permIDs(8, rng)
	res, _, err := RunContext(context.Background(), g, ids, 8, sim.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := verify.NumColors(res.Color); got != 8 {
		t.Errorf("K8 colored with %d colors, want 8", got)
	}
}

func TestBipartiteUsesTwoColors(t *testing.T) {
	// Greedy on a complete bipartite graph uses exactly 2 colors
	// regardless of order.
	rng := rand.New(rand.NewSource(3))
	g := graph.CompleteBipartite(6, 6)
	ids, _ := permIDs(12, rng)
	res, _, err := RunContext(context.Background(), g, ids, 12, sim.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := verify.NumColors(res.Color); got != 2 {
		t.Errorf("K6,6 colored with %d colors, want 2", got)
	}
}

func TestQuickMatchesSequentialGreedy(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%25) + 1
		g := graph.GNP(n, 0.3, rng)
		ids, order := permIDs(n, rng)
		res, _, err := RunContext(context.Background(), g, ids, n, sim.Config{Seed: seed, Strict: true})
		if err != nil {
			return false
		}
		if verify.CheckColoring(g, res.Color) != nil {
			return false
		}
		want := Greedy(g, order)
		for v := range want {
			if res.Color[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRejectsBadIDs(t *testing.T) {
	g := graph.Path(3)
	for _, ids := range [][]int{{1, 2}, {1, 1, 2}, {0, 1, 2}, {1, 2, 9}} {
		if _, _, err := RunContext(context.Background(), g, ids, 3, sim.Config{}); err == nil {
			t.Errorf("ids %v accepted", ids)
		}
	}
}

func TestGreedyReference(t *testing.T) {
	// Path 0-1-2 processed 0,2,1: colors 0,0 then 1 for the middle.
	g := graph.Path(3)
	got := Greedy(g, []int{0, 2, 1})
	want := []int{0, 1, 0}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("greedy = %v, want %v", got, want)
		}
	}
}
