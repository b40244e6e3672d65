package sim

import (
	"testing"

	"awakemis/internal/graph"
)

// emptyMsg is a zero-size, zero-bit message: broadcasting it exercises
// the full send/route/deliver path without boxing allocations of its
// own, so any allocation the guard sees belongs to the engine.
type emptyMsg struct{}

func (emptyMsg) Bits() int { return 0 }

// allocProbeNode wakes every round forever and broadcasts on all ports,
// keeping every inbox and outbox at steady occupancy.
type allocProbeNode struct{}

func (allocProbeNode) Start(out *Outbox) { out.Broadcast(emptyMsg{}) }

func (allocProbeNode) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	out.Broadcast(emptyMsg{})
	return round + 1, false
}

var allocProbe StepProgram = func(env *NodeEnv) StepNode { return allocProbeNode{} }

// TestSteppedRoundZeroAllocs pins the tentpole invariant of the stepped
// engine: once buffers have grown to their steady-state capacity, a
// full round — routing through the run's reverse-port table, inbox
// sorting, every OnWake fan-out, and rescheduling — performs zero heap
// allocations for native step programs. A regression here (a closure
// creeping into the hot path, sort.Slice, per-round goroutines, inbox
// reallocation) fails the test rather than silently costing 10x at
// n=10⁷.
func TestSteppedRoundZeroAllocs(t *testing.T) {
	// Cycle(512) keeps every node awake with two messages per inbox per
	// round; 512 ≥ minParallel so the workers=4 case exercises the pool.
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "workers=1", 4: "workers=4"}[workers], func(t *testing.T) {
			g := graph.Cycle(512)
			cfg, err := Config{Seed: 7}.withDefaults(g.N())
			if err != nil {
				t.Fatal(err)
			}
			rs, err := newStepState(g, allocProbe, cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			defer rs.close()

			// Warm up: grow the inbox buffer, the wake queue's bucket
			// pool and round heap, and the outbox slices.
			for i := 0; i < 8; i++ {
				if err := rs.round(workers); err != nil {
					t.Fatal(err)
				}
			}

			avg := testing.AllocsPerRun(100, func() {
				if err := rs.round(workers); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("steady-state round allocates %.1f objects/round, want 0", avg)
			}
		})
	}
}

// TestAdapterInboxNotReused documents the adapter boundary of the reuse
// optimization: goroutine-form programs receive their inbox through
// Ctx.Deliver, which makes no borrowing promise, so the engine must
// hand the slice over rather than truncate it for the next round.
func TestAdapterInboxNotReused(t *testing.T) {
	g := graph.Cycle(8)
	var retained [][]Inbound
	prog := Program(func(ctx *Ctx) {
		for r := 0; r < 4; r++ {
			ctx.Broadcast(emptyMsg{})
			in := ctx.Deliver()
			if ctx.id == 0 {
				retained = append(retained, in)
			}
			ctx.Advance()
		}
	})
	if _, err := Run(g, prog, Config{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	seen := map[*Inbound]bool{}
	for _, in := range retained {
		if len(in) == 0 {
			continue
		}
		if seen[&in[0]] {
			t.Fatal("adapter-delivered inbox buffer was reused across rounds")
		}
		seen[&in[0]] = true
		for _, ib := range in {
			if _, ok := ib.Msg.(emptyMsg); !ok {
				t.Fatalf("retained inbox corrupted: %T", ib.Msg)
			}
		}
	}
	if len(retained) < 3 {
		t.Fatalf("expected node 0 to retain inboxes from several rounds, got %d", len(retained))
	}
}
