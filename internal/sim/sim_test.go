package sim

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"awakemis/internal/bitio"
	"awakemis/internal/graph"
)

// intMsg is a simple test message carrying one integer.
type intMsg int64

func (m intMsg) Bits() int { return bitio.IntBits(int64(m)) }

// bigMsg reports an arbitrary size regardless of content.
type bigMsg struct{ bits int }

func (m bigMsg) Bits() int { return m.bits }

var (
	_ Message = intMsg(0)
	_ Message = bigMsg{}
)

// collector gathers per-node outputs race-free (each node writes only
// its own slot; the engine's final barrier orders it before reads).
type collector struct {
	mu   sync.Mutex
	vals map[int][]int64
}

func newCollector() *collector { return &collector{vals: map[int][]int64{}} }

func (c *collector) add(node int, v int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.vals[node] = append(c.vals[node], v)
}

// funcNode is a StepNode built from closures: start stages the node's
// round-0 sends (nil stages nothing), and wake is its OnWake.
type funcNode struct {
	start func(out *Outbox)
	wake  func(round int64, in []Inbound, out *Outbox) (int64, bool)
}

func (n funcNode) Start(out *Outbox) {
	if n.start != nil {
		n.start(out)
	}
}

func (n funcNode) OnWake(round int64, in []Inbound, out *Outbox) (int64, bool) {
	return n.wake(round, in, out)
}

// perNode builds a step program from a per-node funcNode constructor.
func perNode(f func(env *NodeEnv) funcNode) StepProgram {
	return func(env *NodeEnv) StepNode { return f(env) }
}

// halt is a wake that halts the node.
func halt(int64, []Inbound, *Outbox) (int64, bool) { return 0, true }

func TestPingExchange(t *testing.T) {
	g := graph.Path(2)
	got := newCollector()
	prog := perNode(func(env *NodeEnv) funcNode {
		return funcNode{
			start: func(out *Outbox) { out.Send(0, intMsg(int64(100+env.ID))) },
			wake: func(_ int64, in []Inbound, _ *Outbox) (int64, bool) {
				if len(in) != 1 {
					t.Errorf("node %d: got %d messages, want 1", env.ID, len(in))
					return 0, true
				}
				got.add(env.ID, int64(in[0].Msg.(intMsg)))
				return 0, true
			},
		}
	})
	m, err := RunStepContext(context.Background(), g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.vals[0][0] != 101 || got.vals[1][0] != 100 {
		t.Errorf("exchange wrong: %v", got.vals)
	}
	if m.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", m.Rounds)
	}
	if m.MaxAwake != 1 || m.TotalAwake != 2 {
		t.Errorf("awake metrics = max %d total %d, want 1/2", m.MaxAwake, m.TotalAwake)
	}
	if m.MessagesSent != 2 || m.MessagesDelivered != 2 {
		t.Errorf("messages = %d sent %d delivered, want 2/2", m.MessagesSent, m.MessagesDelivered)
	}
}

func TestMessageToSleepingNodeIsLost(t *testing.T) {
	g := graph.Path(2)
	got := newCollector()
	prog := perNode(func(env *NodeEnv) funcNode {
		if env.ID == 0 {
			// Round 0: sleep through round 1, wake round 2, where only
			// the round-2 message is waiting (the round-1 one is lost).
			return funcNode{wake: func(round int64, in []Inbound, _ *Outbox) (int64, bool) {
				if round == 0 {
					return 2, false
				}
				got.add(0, int64(len(in)))
				return 0, true
			}}
		}
		// Node 1: round 0 idle, round 1 send (lost), round 2 send (heard).
		return funcNode{wake: func(round int64, _ []Inbound, out *Outbox) (int64, bool) {
			if round == 2 {
				return 0, true
			}
			out.Send(0, intMsg(7+2*round))
			return round + 1, false
		}}
	})
	m, err := RunStepContext(context.Background(), g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.vals[0][0] != 1 {
		t.Errorf("node 0 should hear exactly the round-2 message, got %d", got.vals[0][0])
	}
	if m.MessagesSent != 2 || m.MessagesDelivered != 1 {
		t.Errorf("sent %d delivered %d, want 2/1", m.MessagesSent, m.MessagesDelivered)
	}
}

func TestSenderAsleepMessageNotSent(t *testing.T) {
	// A sleeping node cannot send: the API has no way to express it, and
	// nothing is delivered to an awake listener from a sleeping neighbor.
	g := graph.Path(2)
	heard := newCollector()
	prog := perNode(func(env *NodeEnv) funcNode {
		if env.ID == 0 {
			return funcNode{wake: func(round int64, _ []Inbound, _ *Outbox) (int64, bool) {
				if round == 0 {
					return 4, false
				}
				return 0, true
			}}
		}
		return funcNode{wake: func(round int64, in []Inbound, _ *Outbox) (int64, bool) {
			heard.add(1, int64(len(in)))
			if round == 3 {
				return 0, true
			}
			return round + 1, false
		}}
	})
	if _, err := RunStepContext(context.Background(), g, prog, Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range heard.vals[1] {
		if c != 0 {
			t.Errorf("awake node heard %d messages from sleeping neighbor", c)
		}
	}
}

func TestClockSkipping(t *testing.T) {
	g := graph.New(3)
	prog := perNode(func(env *NodeEnv) funcNode {
		// Sleep to round 1e6, stay awake there for one round, then halt.
		return funcNode{wake: func(round int64, _ []Inbound, _ *Outbox) (int64, bool) {
			return 1_000_000, round > 0
		}}
	})
	m, err := RunStepContext(context.Background(), g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 1_000_001 {
		t.Errorf("Rounds = %d, want 1000001", m.Rounds)
	}
	if m.ExecutedRounds != 2 {
		t.Errorf("ExecutedRounds = %d, want 2 (round 0 and round 1e6)", m.ExecutedRounds)
	}
	if m.MaxAwake != 2 {
		t.Errorf("MaxAwake = %d, want 2", m.MaxAwake)
	}
}

func TestRoundNumbersVisible(t *testing.T) {
	g := graph.New(1)
	var rounds []int64
	schedule := map[int64]int64{0: 1, 1: 10}
	prog := perNode(func(env *NodeEnv) funcNode {
		return funcNode{wake: func(round int64, _ []Inbound, _ *Outbox) (int64, bool) {
			rounds = append(rounds, round)
			next, ok := schedule[round]
			return next, !ok
		}}
	})
	if _, err := RunStepContext(context.Background(), g, prog, Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 1, 10}
	if !reflect.DeepEqual(rounds, want) {
		t.Errorf("rounds = %v, want %v", rounds, want)
	}
}

// bigSendProgram stages one oversized message on port 0 for round 0.
var bigSendProgram = perNode(func(env *NodeEnv) funcNode {
	return funcNode{start: func(out *Outbox) { out.Send(0, bigMsg{bits: 10_000}) }, wake: halt}
})

func TestStrictCongestViolation(t *testing.T) {
	_, err := RunStepContext(context.Background(), graph.Path(2), bigSendProgram, Config{Seed: 1, Strict: true})
	if err == nil {
		t.Fatal("expected bandwidth error")
	}
	var be *BandwidthError
	if !errors.As(err, &be) {
		t.Fatalf("error %v is not a BandwidthError", err)
	}
}

func TestNonStrictAllowsBigMessages(t *testing.T) {
	m, err := RunStepContext(context.Background(), graph.Path(2), bigSendProgram, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxMessageBits != 10_000 {
		t.Errorf("MaxMessageBits = %d", m.MaxMessageBits)
	}
}

// sleepForever sleeps 100 rounds at a time, forever.
var sleepForever = perNode(func(env *NodeEnv) funcNode {
	return funcNode{wake: func(round int64, _ []Inbound, _ *Outbox) (int64, bool) {
		return round + 101, false
	}}
})

func TestMaxRoundsAborts(t *testing.T) {
	_, err := RunStepContext(context.Background(), graph.New(1), sleepForever, Config{Seed: 1, MaxRounds: 500})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

// panicOnNode1 panics on node 1 in round 0; every other node halts.
var panicOnNode1 = perNode(func(env *NodeEnv) funcNode {
	return funcNode{wake: func(int64, []Inbound, *Outbox) (int64, bool) {
		if env.ID == 1 {
			panic("boom")
		}
		return 0, true
	}}
})

func TestProgramPanicBecomesError(t *testing.T) {
	if _, err := RunStepContext(context.Background(), graph.Path(3), panicOnNode1, Config{Seed: 1}); err == nil {
		t.Fatal("expected error from panicking program")
	}
}

func TestHalt(t *testing.T) {
	g := graph.New(2)
	prog := perNode(func(env *NodeEnv) funcNode {
		if env.ID == 0 {
			return funcNode{wake: halt}
		}
		return funcNode{wake: func(round int64, _ []Inbound, _ *Outbox) (int64, bool) {
			return round + 1, round == 2
		}}
	})
	m, err := RunStepContext(context.Background(), g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.AwakePerNode[0] != 1 {
		t.Errorf("halted node awake %d rounds, want 1", m.AwakePerNode[0])
	}
	if m.AwakePerNode[1] != 3 {
		t.Errorf("node 1 awake %d rounds, want 3", m.AwakePerNode[1])
	}
}

func TestDeterministicReplay(t *testing.T) {
	g := graph.Cycle(16)
	run := func() []int64 {
		vals := make([]int64, g.N())
		prog := perNode(func(env *NodeEnv) funcNode {
			x := env.Rand.Int63n(1000)
			return funcNode{
				start: func(out *Outbox) { out.Broadcast(intMsg(x)) },
				wake: func(round int64, in []Inbound, _ *Outbox) (int64, bool) {
					if round == 1 {
						vals[env.ID] += env.Rand.Int63n(10)
						return 0, true
					}
					sum := x
					for _, m := range in {
						sum += int64(m.Msg.(intMsg))
					}
					vals[env.ID] = sum
					return 1, false
				},
			}
		})
		if _, err := RunStepContext(context.Background(), g, prog, Config{Seed: 42}); err != nil {
			t.Fatal(err)
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at node %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	g := graph.New(8)
	run := func(seed int64) int64 {
		var mu sync.Mutex
		var total int64
		prog := perNode(func(env *NodeEnv) funcNode {
			return funcNode{wake: func(int64, []Inbound, *Outbox) (int64, bool) {
				v := env.Rand.Int63n(1 << 30)
				mu.Lock()
				total += v
				mu.Unlock()
				return 0, true
			}}
		})
		if _, err := RunStepContext(context.Background(), g, prog, Config{Seed: seed}); err != nil {
			t.Fatal(err)
		}
		return total
	}
	if run(1) == run(2) {
		t.Error("different seeds produced identical randomness (unlikely)")
	}
}

func TestInboxSortedByPort(t *testing.T) {
	g := graph.Star(5) // center 0 with 4 leaves
	var ports []int
	prog := perNode(func(env *NodeEnv) funcNode {
		if env.ID == 0 {
			return funcNode{wake: func(_ int64, in []Inbound, _ *Outbox) (int64, bool) {
				for _, m := range in {
					ports = append(ports, m.Port)
				}
				return 0, true
			}}
		}
		return funcNode{start: func(out *Outbox) { out.Send(0, intMsg(int64(env.ID))) }, wake: halt}
	})
	if _, err := RunStepContext(context.Background(), g, prog, Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if len(ports) != 4 {
		t.Fatalf("center heard %d messages, want 4", len(ports))
	}
	for i, p := range ports {
		if p != i {
			t.Errorf("inbox[%d].Port = %d, want %d", i, p, i)
		}
	}
}

func TestPortSymmetry(t *testing.T) {
	// A message sent on port p arrives tagged with the receiver's port
	// back to the sender.
	g := graph.Cycle(6)
	bad := newCollector()
	prog := perNode(func(env *NodeEnv) funcNode {
		// Everybody announces its index on every port.
		return funcNode{
			start: func(out *Outbox) { out.Broadcast(intMsg(int64(env.ID))) },
			wake: func(_ int64, in []Inbound, _ *Outbox) (int64, bool) {
				for _, m := range in {
					nb := g.Neighbor(env.ID, m.Port)
					if nb != int(m.Msg.(intMsg)) {
						bad.add(env.ID, int64(nb))
					}
				}
				return 0, true
			},
		}
	})
	if _, err := RunStepContext(context.Background(), g, prog, Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if len(bad.vals) != 0 {
		t.Errorf("port attribution wrong for nodes %v", bad.vals)
	}
}

func TestInvalidPortPanics(t *testing.T) {
	prog := perNode(func(env *NodeEnv) funcNode {
		return funcNode{start: func(out *Outbox) { out.Send(5, intMsg(1)) }, wake: halt}
	})
	if _, err := RunStepContext(context.Background(), graph.Path(2), prog, Config{Seed: 1}); err == nil {
		t.Fatal("expected invalid-port error")
	}
}

func TestNTooSmallRejected(t *testing.T) {
	prog := perNode(func(env *NodeEnv) funcNode { return funcNode{wake: halt} })
	if _, err := RunStepContext(context.Background(), graph.New(10), prog, Config{N: 5}); err == nil {
		t.Fatal("expected error for N < n")
	}
}

func TestDefaultBandwidth(t *testing.T) {
	if b := DefaultBandwidth(1024); b != 16*11+16 {
		t.Errorf("DefaultBandwidth(1024) = %d", b)
	}
	if b := DefaultBandwidth(0); b != 16*2+16 {
		t.Errorf("DefaultBandwidth(0) = %d", b)
	}
}

func TestAvgAwake(t *testing.T) {
	m := &Metrics{AwakePerNode: []int64{1, 3}, TotalAwake: 4}
	if got := m.AvgAwake(); got != 2 {
		t.Errorf("AvgAwake = %v, want 2", got)
	}
	empty := &Metrics{}
	if got := empty.AvgAwake(); got != 0 {
		t.Errorf("empty AvgAwake = %v", got)
	}
}

func TestManyNodesFloodStress(t *testing.T) {
	g := graph.Grid(30, 30)
	// Broadcast in rounds 0..4, stay awake through round 5, then halt.
	prog := perNode(func(env *NodeEnv) funcNode {
		return funcNode{
			start: func(out *Outbox) { out.Broadcast(intMsg(0)) },
			wake: func(round int64, _ []Inbound, out *Outbox) (int64, bool) {
				if round < 4 {
					out.Broadcast(intMsg(round + 1))
				}
				return round + 1, round == 5
			},
		}
	})
	m, err := RunStepContext(context.Background(), g, prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 6 {
		t.Errorf("Rounds = %d, want 6", m.Rounds)
	}
	wantMsgs := int64(5 * 2 * g.M()) // each edge both directions, 5 rounds
	if m.MessagesSent != wantMsgs {
		t.Errorf("MessagesSent = %d, want %d", m.MessagesSent, wantMsgs)
	}
}

func TestEmptyGraph(t *testing.T) {
	prog := perNode(func(env *NodeEnv) funcNode { return funcNode{wake: halt} })
	m, err := RunStepContext(context.Background(), graph.New(0), prog, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rounds != 0 {
		t.Errorf("Rounds = %d, want 0", m.Rounds)
	}
}
