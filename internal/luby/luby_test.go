package luby

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"awakemis/internal/graph"
	"awakemis/internal/sim"
	"awakemis/internal/verify"
)

func TestLubyValidMIS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := map[string]*graph.Graph{
		"cycle":    graph.Cycle(40),
		"path":     graph.Path(25),
		"complete": graph.Complete(15),
		"star":     graph.Star(30),
		"gnp":      graph.GNP(120, 0.08, rng),
		"tree":     graph.RandomTree(80, rng),
		"grid":     graph.Grid(9, 9),
		"isolated": graph.New(7),
		"disjoint": graph.DisjointUnion(graph.Cycle(5), graph.Complete(4), graph.New(2)),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			res, m, err := RunContext(context.Background(), g, sim.Config{Seed: 7, Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.CheckMIS(g, res.InMIS); err != nil {
				t.Fatal(err)
			}
			if m.MaxAwake < 1 {
				t.Error("no node was ever awake")
			}
		})
	}
}

func TestLubyIsolatedNodesJoin(t *testing.T) {
	g := graph.New(5)
	res, m, err := RunContext(context.Background(), g, sim.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v, in := range res.InMIS {
		if !in {
			t.Errorf("isolated node %d not in MIS", v)
		}
	}
	if m.MaxAwake != 2 {
		t.Errorf("isolated nodes should decide in one iteration (2 awake rounds), got %d", m.MaxAwake)
	}
}

func TestLubyAwakeIsLogarithmic(t *testing.T) {
	// Luby's awake complexity grows like Θ(log n): verify it stays
	// within a generous constant of log₂ n on random graphs.
	for _, n := range []int{64, 256, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.GNP(n, 4/float64(n), rng)
		_, m, err := RunContext(context.Background(), g, sim.Config{Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		bound := 8 * math.Log2(float64(n))
		if float64(m.MaxAwake) > bound {
			t.Errorf("n=%d: MaxAwake %d > %f", n, m.MaxAwake, bound)
		}
	}
}

func TestLubyDeterministicReplay(t *testing.T) {
	g := graph.Cycle(30)
	r1, m1, err := RunContext(context.Background(), g, sim.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r2, m2, err := RunContext(context.Background(), g, sim.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for v := range r1.InMIS {
		if r1.InMIS[v] != r2.InMIS[v] {
			t.Fatalf("replay diverged at node %d", v)
		}
	}
	if m1.Rounds != m2.Rounds || m1.TotalAwake != m2.TotalAwake {
		t.Error("replay metrics diverged")
	}
}

func TestQuickLubyAlwaysMIS(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%40) + 1
		g := graph.GNP(n, 0.25, rng)
		res, _, err := RunContext(context.Background(), g, sim.Config{Seed: seed, Strict: true})
		if err != nil {
			return false
		}
		return verify.CheckMIS(g, res.InMIS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLubyCongestCompliant(t *testing.T) {
	g := graph.Complete(20)
	_, m, err := RunContext(context.Background(), g, sim.Config{Seed: 3, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxMessageBits > sim.DefaultBandwidth(g.N()) {
		t.Errorf("message of %d bits exceeds bandwidth", m.MaxMessageBits)
	}
}
