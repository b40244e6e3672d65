package core_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"awakemis/internal/core"
	"awakemis/internal/graph"
	"awakemis/internal/sim"
)

// maxMallocsPerNode bounds the heap allocations one Awake-MIS run makes
// per node: engine setup, the per-node step state, the LDT sessions and
// the payloads of the messages actually sent. The count is flat in n
// (about 15 per node from n = 1024 to 16384). A closure or map built
// per primitive call costs hundreds per node, so the bound catches one
// that creeps back in while leaving headroom for engine changes.
const maxMallocsPerNode = 40

// maxBytesPerNode bounds the bytes one Awake-MIS run allocates per
// node, 9% above the 550 B measured on G(4096, 4/n). An 896-B window
// frame per window instead of the run's pool, a communication-set
// slice per node, a math/rand wrapper per node RNG, or the flat inbox
// buffer and per-node inbox slots coming back into broadcast-only
// rounds pushes it past the bound.
const maxBytesPerNode = 600

// TestAwakeMISAllocsPerNode is a count-based guard with no timing: it
// runs Awake-MIS on G(4096, 4/n) on one stepped worker and fails when
// the run's mallocs per node exceed maxMallocsPerNode or its allocated
// bytes per node exceed maxBytesPerNode.
func TestAwakeMISAllocsPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Awake-MIS at n = 4096")
	}
	const n = 4096
	g := graph.GNP(n, 4.0/n, rand.New(rand.NewSource(1)))
	cfg := sim.Config{Seed: 1, Engine: sim.NewSteppedEngine(1)}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, _, err := core.RunContext(context.Background(), g, core.Params{}, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InMIS) != n {
		t.Fatalf("result covers %d nodes, want %d", len(res.InMIS), n)
	}
	perNode := float64(after.Mallocs-before.Mallocs) / n
	bytesPerNode := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("awake-mis G(%d, 4/n): %.1f mallocs/node, %.0f B/node", n, perNode, bytesPerNode)
	if perNode > maxMallocsPerNode {
		t.Errorf("awake-mis made %.1f mallocs per node, want ≤ %d", perNode, maxMallocsPerNode)
	}
	if bytesPerNode > maxBytesPerNode {
		t.Errorf("awake-mis allocated %.0f B per node, want ≤ %d", bytesPerNode, maxBytesPerNode)
	}
}
