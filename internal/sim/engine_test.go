package sim

import (
	"sync"
	"testing"

	"awakemis/internal/graph"
)

// recordingTracer checks the Tracer contract: events arrive from the
// engine goroutine in nondecreasing round order.
type recordingTracer struct {
	mu         sync.Mutex
	awake      []int64
	messages   int
	delivered  int
	outOfOrder bool
	lastRound  int64
}

func (r *recordingTracer) NodeAwake(round int64, node int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if round < r.lastRound {
		r.outOfOrder = true
	}
	r.lastRound = round
	r.awake = append(r.awake, round)
}

func (r *recordingTracer) Message(round int64, from, to, bits int, delivered bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if round < r.lastRound {
		r.outOfOrder = true
	}
	r.messages++
	if delivered {
		r.delivered++
	}
}

func TestTracerEventStream(t *testing.T) {
	g := graph.Cycle(8)
	tr := &recordingTracer{}
	// Broadcast in round 0, sleep three rounds, broadcast in round 4.
	prog := perNode(func(env *NodeEnv) funcNode {
		return funcNode{
			start: func(out *Outbox) { out.Broadcast(intMsg(1)) },
			wake: func(round int64, _ []Inbound, out *Outbox) (int64, bool) {
				if round > 0 {
					return 0, true
				}
				out.Broadcast(intMsg(2))
				return 4, false
			},
		}
	})
	m, err := RunStep(g, prog, Config{Seed: 1, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.outOfOrder {
		t.Error("tracer saw rounds out of order")
	}
	if int64(len(tr.awake)) != m.TotalAwake {
		t.Errorf("tracer awake events %d != TotalAwake %d", len(tr.awake), m.TotalAwake)
	}
	if int64(tr.messages) != m.MessagesSent {
		t.Errorf("tracer messages %d != sent %d", tr.messages, m.MessagesSent)
	}
	if int64(tr.delivered) != m.MessagesDelivered {
		t.Errorf("tracer delivered %d != %d", tr.delivered, m.MessagesDelivered)
	}
}

func TestSleepImmediatelyAtStart(t *testing.T) {
	// A node may end round 0 without any sends.
	g := graph.New(2)
	prog := perNode(func(env *NodeEnv) funcNode {
		if env.ID != 0 {
			return funcNode{wake: halt}
		}
		return funcNode{wake: func(round int64, _ []Inbound, _ *Outbox) (int64, bool) {
			if round == 0 {
				return 5, false
			}
			if round != 5 {
				t.Errorf("woke at %d, want 5", round)
			}
			return 0, true
		}}
	})
	m, err := RunStep(g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.AwakePerNode[0] != 2 || m.AwakePerNode[1] != 1 {
		t.Errorf("awake = %v, want [2 1]", m.AwakePerNode)
	}
}

func TestHaltedNeighborsDoNotDeadlock(t *testing.T) {
	// One side of every edge halts in round 0; the other keeps sending
	// into the void for many rounds. The engine must neither deadlock
	// nor deliver anything.
	g := graph.CompleteBipartite(4, 4)
	prog := perNode(func(env *NodeEnv) funcNode {
		if env.ID < 4 {
			return funcNode{wake: halt} // halt after round 0
		}
		// Broadcast in rounds 0..49, stay awake through round 50.
		return funcNode{
			start: func(out *Outbox) { out.Broadcast(intMsg(0)) },
			wake: func(round int64, in []Inbound, out *Outbox) (int64, bool) {
				if round > 0 && len(in) > 0 {
					t.Error("received message from halted neighbor")
				}
				if round < 49 {
					out.Broadcast(intMsg(round + 1))
				}
				return round + 1, round == 50
			},
		}
	})
	m, err := RunStep(g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Only round 0 delivers: senders 4..7 each reach the four not-yet-
	// halted nodes 0..3 (halting nodes are still awake in round 0).
	if m.MessagesDelivered != 16 {
		t.Errorf("delivered = %d, want 16", m.MessagesDelivered)
	}
}

func TestZeroDegreeBroadcast(t *testing.T) {
	// A broadcast from a node with no ports stages nothing, on every
	// engine.
	g := graph.New(3)
	sp := StepProgram(func(env *NodeEnv) StepNode { return isolatedBroadcaster{t: t} })
	if m := runAll(t, g, sp, Config{Seed: 1}); m.MessagesSent != 0 {
		t.Errorf("messages = %d, want 0", m.MessagesSent)
	}
}

// isolatedBroadcaster broadcasts from a node with no ports and checks
// that nothing was staged or received.
type isolatedBroadcaster struct{ t *testing.T }

func (b isolatedBroadcaster) Start(out *Outbox) {
	out.Broadcast(intMsg(1))
	if len(out.msgs) != 0 {
		b.t.Errorf("zero-degree broadcast staged %d entries", len(out.msgs))
	}
}

func (b isolatedBroadcaster) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	if len(inbox) != 0 {
		b.t.Error("isolated node received messages")
	}
	return 0, true
}

func TestLongSparseScheduleMetrics(t *testing.T) {
	// Nodes wake in disjoint singleton rounds; ExecutedRounds must equal
	// the number of distinct wake rounds.
	g := graph.New(5)
	prog := perNode(func(env *NodeEnv) funcNode {
		return funcNode{wake: func(round int64, _ []Inbound, _ *Outbox) (int64, bool) {
			return 1000 + 100*int64(env.ID), round > 0
		}}
	})
	m, err := RunStep(g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.ExecutedRounds != 6 { // round 0 plus five wake rounds
		t.Errorf("ExecutedRounds = %d, want 6", m.ExecutedRounds)
	}
	if m.Rounds != 1401 {
		t.Errorf("Rounds = %d, want 1401", m.Rounds)
	}
}
