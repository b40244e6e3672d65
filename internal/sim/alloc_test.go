package sim

import (
	"context"
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

// sentinel is the message a program appends to its own inbox.
type sentinel struct{}

func (sentinel) Bits() int { return 0 }

// appendingNode broadcasts every round for four rounds, counts the
// sentinels it finds in its inbox, and then appends one of its own.
type appendingNode struct{ seen *int64 }

func (n appendingNode) Start(out *Outbox) { out.Broadcast(emptyMsg{}) }

func (n appendingNode) OnWake(round int64, in []Inbound, out *Outbox) (int64, bool) {
	for _, m := range in {
		if _, ok := m.Msg.(sentinel); ok {
			*n.seen++
		}
	}
	_ = append(in, Inbound{Msg: sentinel{}})
	out.Broadcast(emptyMsg{})
	return round + 1, round == 3
}

// TestInboxAppendStaysInRegion guards the inbox borrowing contract: an
// inbox is a region of the round's flat buffer, capped at its own
// length, so a program that appends to its inbox reallocates instead
// of overwriting the next receiver's region.
func TestInboxAppendStaysInRegion(t *testing.T) {
	g := graph.Cycle(8)
	for name, eng := range testEngines() {
		seen := make([]int64, g.N())
		sp := StepProgram(func(env *NodeEnv) StepNode { return appendingNode{seen: &seen[env.ID]} })
		if _, err := eng.Run(context.Background(), g, sp, Config{Seed: 3}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v, c := range seen {
			if c != 0 {
				t.Fatalf("%s: node %d found %d sentinels another node appended", name, v, c)
			}
		}
	}
}
