package luby_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"awakemis/internal/graph"
	"awakemis/internal/luby"
	"awakemis/internal/sim"
)

// maxMallocsPerNode bounds the heap allocations one Luby run makes per
// node: the engine's per-run arrays, the per-node step state, and the
// boxed value of each broadcast actually sent. The engine makes no
// allocation of its own per node, so the count is about 2.3 per node
// on G(4096, 4/n); one per-node allocation creeping into engine setup
// or routing (a node's RNG or outbox, say) pushes it past the bound.
const maxMallocsPerNode = 3

// maxBytesPerNode bounds the bytes one Luby run allocates per node, 10%
// above the 250 B measured on G(4096, 4/n). A 48-B math/rand wrapper
// around each node's splitmix64 state, or the flat inbox buffer and
// per-node inbox slots coming back into broadcast-only runs (about
// 100 B per node here), pushes it past the bound.
const maxBytesPerNode = 275

// TestLubyAllocsPerNode is a count-based guard with no timing: it runs
// Luby on G(4096, 4/n) on one stepped worker and fails when the run's
// mallocs per node exceed maxMallocsPerNode or its allocated bytes per
// node exceed maxBytesPerNode.
func TestLubyAllocsPerNode(t *testing.T) {
	const n = 4096
	g := graph.GNP(n, 4.0/n, rand.New(rand.NewSource(1)))
	cfg := sim.Config{Seed: 1, Engine: sim.NewSteppedEngine(1)}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, _, err := luby.RunContext(context.Background(), g, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InMIS) != n {
		t.Fatalf("result covers %d nodes, want %d", len(res.InMIS), n)
	}
	perNode := float64(after.Mallocs-before.Mallocs) / n
	bytesPerNode := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("luby G(%d, 4/n): %.2f mallocs/node, %.0f B/node", n, perNode, bytesPerNode)
	if perNode > maxMallocsPerNode {
		t.Errorf("luby made %.2f mallocs per node, want ≤ %d", perNode, maxMallocsPerNode)
	}
	if bytesPerNode > maxBytesPerNode {
		t.Errorf("luby allocated %.0f B per node, want ≤ %d", bytesPerNode, maxBytesPerNode)
	}
}
