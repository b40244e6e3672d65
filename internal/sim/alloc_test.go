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
// keeping every inbox and outbox at steady occupancy. Its rounds are
// broadcast-only, so each node gathers its own inbox.
type allocProbeNode struct{}

func (allocProbeNode) Start(out *Outbox) { out.Broadcast(emptyMsg{}) }

func (allocProbeNode) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	out.Broadcast(emptyMsg{})
	return round + 1, false
}

var allocProbe StepProgram = func(env *NodeEnv) StepNode { return allocProbeNode{} }

// unicastProbeNode is allocProbeNode with a unicast Send on every port
// in place of the Broadcast, so the stepped engine routes its rounds by
// counting sort.
type unicastProbeNode struct{ degree int }

func (n unicastProbeNode) Start(out *Outbox) { sendEveryPort(out, n.degree) }

func (n unicastProbeNode) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	sendEveryPort(out, n.degree)
	return round + 1, false
}

var unicastProbe StepProgram = func(env *NodeEnv) StepNode { return unicastProbeNode{degree: env.Degree} }

// sendEveryPort stages one unicast emptyMsg on each of a node's ports.
func sendEveryPort(out *Outbox, degree int) {
	for p := 0; p < degree; p++ {
		out.Send(p, emptyMsg{})
	}
}

// TestSteppedRoundZeroAllocs pins the tentpole invariant of the stepped
// engine: once buffers have grown to their steady-state capacity, a
// full round — routing, every inbox gather and OnWake fan-out, and
// rescheduling — performs zero heap allocations for native step
// programs. It holds on both routing paths: broadcast-only rounds,
// whose nodes gather their inboxes into their goroutines' buffers, and
// the counting sort through the run's reverse-port table, which
// unicast rounds take. A regression here (a closure creeping into the
// hot path, sort.Slice, per-round goroutines, inbox reallocation)
// fails the test rather than silently costing 10x at n=10⁷.
func TestSteppedRoundZeroAllocs(t *testing.T) {
	// Cycle(512) keeps every node awake with two messages per inbox per
	// round; 512 ≥ minParallel so the workers=4 case exercises the pool.
	for _, workers := range []int{1, 4} {
		t.Run(map[int]string{1: "workers=1", 4: "workers=4"}[workers], func(t *testing.T) {
			for name, prog := range map[string]StepProgram{"broadcast": allocProbe, "unicast": unicastProbe} {
				t.Run(name, func(t *testing.T) {
					g := graph.Cycle(512)
					cfg, err := Config{Seed: 7}.withDefaults(g.N())
					if err != nil {
						t.Fatal(err)
					}
					rs, err := newStepState(g, prog, cfg, workers)
					if err != nil {
						t.Fatal(err)
					}
					defer rs.close()

					// Warm up: grow the gather buffers or the inbox
					// buffer, the wake queue's bucket pool and round
					// heap, and the outbox slices, and build the
					// reverse-port table if the path uses it.
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
		})
	}
}

// TestReversePortsBuiltOnDemand checks which path routes a round: a
// run of broadcast-only rounds, whose nodes gather their own inboxes,
// allocates none of the counting sort's state (the reverse-port table,
// the inbox slots and the flat inbox buffer), and the first round with
// a unicast send allocates all three.
func TestReversePortsBuiltOnDemand(t *testing.T) {
	for name, tc := range map[string]struct {
		prog  StepProgram
		built bool
	}{"broadcast": {allocProbe, false}, "unicast": {unicastProbe, true}} {
		g := graph.Cycle(16)
		cfg, err := Config{Seed: 7}.withDefaults(g.N())
		if err != nil {
			t.Fatal(err)
		}
		rs, err := newStepState(g, tc.prog, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := rs.round(1); err != nil {
				t.Fatal(err)
			}
		}
		rs.close()
		for state, built := range map[string]bool{
			"reverse-port table": rs.rev != nil,
			"inbox slots":        rs.rx != nil,
			"inbox buffer":       rs.inBuf != nil,
		} {
			if built != tc.built {
				t.Errorf("%s: %s built = %v, want %v", name, state, built, tc.built)
			}
		}
	}
}

// sentinel is the message a program appends to its own inbox.
type sentinel struct{}

func (sentinel) Bits() int { return 0 }

// appendingNode broadcasts every round for four rounds, counts the
// sentinels it finds in its inbox, and then appends one of its own.
// With unicast set it sends on every port instead of broadcasting, so
// its rounds route by counting sort rather than by gathering.
type appendingNode struct {
	seen    *int64
	degree  int
	unicast bool
}

func (n appendingNode) stage(out *Outbox) {
	if n.unicast {
		sendEveryPort(out, n.degree)
		return
	}
	out.Broadcast(emptyMsg{})
}

func (n appendingNode) Start(out *Outbox) { n.stage(out) }

func (n appendingNode) OnWake(round int64, in []Inbound, out *Outbox) (int64, bool) {
	for _, m := range in {
		if _, ok := m.Msg.(sentinel); ok {
			*n.seen++
		}
	}
	_ = append(in, Inbound{Msg: sentinel{}})
	n.stage(out)
	return round + 1, round == 3
}

// TestInboxAppendStaysInRegion guards the inbox borrowing contract on
// both routing paths: an inbox is the front of its goroutine's gather
// buffer or a region of the round's flat buffer, capped at its own
// length either way, so a program that appends to its inbox
// reallocates instead of overwriting the next receiver's inbox.
func TestInboxAppendStaysInRegion(t *testing.T) {
	g := graph.Cycle(8)
	for _, unicast := range []bool{false, true} {
		for name, eng := range testEngines() {
			seen := make([]int64, g.N())
			sp := StepProgram(func(env *NodeEnv) StepNode {
				return appendingNode{seen: &seen[env.ID], degree: env.Degree, unicast: unicast}
			})
			if _, err := eng.Run(context.Background(), g, sp, Config{Seed: 3}); err != nil {
				t.Fatalf("%s (unicast %v): %v", name, unicast, err)
			}
			for v, c := range seen {
				if c != 0 {
					t.Fatalf("%s (unicast %v): node %d found %d sentinels another node appended", name, unicast, v, c)
				}
			}
		}
	}
}
