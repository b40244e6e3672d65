package naive

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"awakemis/internal/graph"
	"awakemis/internal/sim"
	"awakemis/internal/verify"
)

// seqIDs assigns IDs by a random permutation: node v gets perm position.
func seqIDs(n int, rng *rand.Rand) ([]int, []int) {
	perm := rng.Perm(n)
	ids := make([]int, n)
	order := make([]int, n) // order[r-1] = node with ID r
	for v, p := range perm {
		ids[v] = p + 1
		order[p] = v
	}
	return ids, order
}

func TestNaiveComputesLFMIS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []*graph.Graph{
		graph.Cycle(20),
		graph.GNP(50, 0.15, rng),
		graph.Star(12),
		graph.Complete(8),
	} {
		ids, order := seqIDs(g.N(), rng)
		res, m, err := RunContext(context.Background(), g, ids, g.N(), sim.Config{Seed: 5, Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.CheckLFMIS(g, res.InMIS, order); err != nil {
			t.Fatal(err)
		}
		// The defining cost: every node is awake in all I rounds.
		if m.MaxAwake != int64(g.N()) {
			t.Errorf("MaxAwake = %d, want I = %d", m.MaxAwake, g.N())
		}
	}
}

func TestNaiveSparseIDs(t *testing.T) {
	// IDs need not be contiguous: use a sparse assignment in [1, 4n].
	rng := rand.New(rand.NewSource(2))
	g := graph.Path(10)
	bound := 40
	perm := rng.Perm(bound)[:10]
	ids := make([]int, 10)
	type pair struct{ id, v int }
	pairs := []pair{}
	for v := range ids {
		ids[v] = perm[v] + 1
		pairs = append(pairs, pair{ids[v], v})
	}
	res, m, err := RunContext(context.Background(), g, ids, bound, sim.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Build the order implied by sparse IDs.
	order := []int{}
	for id := 1; id <= bound; id++ {
		for _, p := range pairs {
			if p.id == id {
				order = append(order, p.v)
			}
		}
	}
	if err := verify.CheckLFMIS(g, res.InMIS, order); err != nil {
		t.Fatal(err)
	}
	if m.Rounds != int64(bound) {
		t.Errorf("Rounds = %d, want %d", m.Rounds, bound)
	}
}

func TestNaiveRejectsBadIDs(t *testing.T) {
	g := graph.Path(3)
	if _, _, err := RunContext(context.Background(), g, []int{1, 2}, 3, sim.Config{}); err == nil {
		t.Error("wrong length accepted")
	}
	if _, _, err := RunContext(context.Background(), g, []int{1, 2, 2}, 3, sim.Config{}); err == nil {
		t.Error("duplicate accepted")
	}
	if _, _, err := RunContext(context.Background(), g, []int{0, 1, 2}, 3, sim.Config{}); err == nil {
		t.Error("out-of-range accepted")
	}
	if _, _, err := RunContext(context.Background(), g, []int{1, 2, 9}, 3, sim.Config{}); err == nil {
		t.Error("over-bound accepted")
	}
}

func TestQuickNaiveMatchesSequentialGreedy(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%25) + 1
		g := graph.GNP(n, 0.3, rng)
		ids, order := seqIDs(n, rng)
		res, _, err := RunContext(context.Background(), g, ids, n, sim.Config{Seed: seed})
		if err != nil {
			return false
		}
		return verify.CheckLFMIS(g, res.InMIS, order) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
