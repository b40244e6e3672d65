package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"awakemis/internal/graph"
)

// testEngines returns every engine configuration under test: the
// reference simulator and the stepped engine at several worker counts.
func testEngines() map[string]Engine {
	return map[string]Engine{
		"reference":  newReferenceEngine(),
		"stepped-1":  NewSteppedEngine(1),
		"stepped-4":  NewSteppedEngine(4),
		"stepped-16": NewSteppedEngine(16),
	}
}

// runAll executes prog under every engine configuration and asserts all
// runs produced identical metrics, returning the common metrics.
func runAll(t *testing.T, g *graph.Graph, prog StepProgram, cfg Config) *Metrics {
	t.Helper()
	var ref *Metrics
	var refName string
	for name, eng := range testEngines() {
		cfg.Engine = eng
		m, err := eng.Run(context.Background(), g, prog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ref == nil {
			ref, refName = m, name
			continue
		}
		if !reflect.DeepEqual(ref, m) {
			t.Fatalf("metrics diverge: %s=%+v vs %s=%+v", refName, ref, name, m)
		}
	}
	return ref
}

// stepFlood is a native StepNode: broadcast for a fixed number of
// rounds, then halt.
type stepFlood struct {
	rounds int64
}

func (s *stepFlood) Start(out *Outbox) { out.Broadcast(intMsg(0)) }

func (s *stepFlood) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	if round == s.rounds-1 {
		return 0, true
	}
	out.Broadcast(intMsg(round + 1))
	return round + 1, false
}

func TestStepProgramAcrossEngines(t *testing.T) {
	g := graph.Grid(8, 8)
	sp := StepProgram(func(env *NodeEnv) StepNode { return &stepFlood{rounds: 5} })
	m := runAll(t, g, sp, Config{Seed: 3})
	if m.Rounds != 5 || m.MaxAwake != 5 {
		t.Errorf("rounds/maxawake = %d/%d, want 5/5", m.Rounds, m.MaxAwake)
	}
	want := int64(5 * 2 * g.M())
	if m.MessagesSent != want || m.MessagesDelivered != want {
		t.Errorf("messages = %d/%d, want %d", m.MessagesSent, m.MessagesDelivered, want)
	}
}

// TestStepMatchesGoroutineForm pins the step-form flood's Metrics to
// those its goroutine-form original produced on the same input: five
// rounds of broadcasts on a 12-cycle, 24 messages per round.
func TestStepMatchesGoroutineForm(t *testing.T) {
	g := graph.Cycle(12)
	sp := StepProgram(func(env *NodeEnv) StepNode { return &stepFlood{rounds: 5} })
	awake := make([]int64, g.N())
	for v := range awake {
		awake[v] = 5
	}
	want := &Metrics{
		Rounds: 5, ExecutedRounds: 5, AwakePerNode: awake, MaxAwake: 5, TotalAwake: 60,
		MessagesSent: 120, MessagesDelivered: 120, BitsSent: 24 * (2 + 2 + 3 + 3 + 4), MaxMessageBits: 4,
	}
	if got := runAll(t, g, sp, Config{Seed: 9}); !reflect.DeepEqual(got, want) {
		t.Errorf("metrics %+v, goroutine original %+v", got, want)
	}
}

// TestGoroutineProgramsAcrossEngines exercises control-flow edge cases
// on every engine: immediate sleep, immediate halt, sends staged and
// then dropped by halting, clock skipping, and randomness-driven
// schedules.
func TestGoroutineProgramsAcrossEngines(t *testing.T) {
	progs := map[string]StepProgram{
		"sleep-at-start": perNode(func(env *NodeEnv) funcNode {
			if env.ID != 0 {
				return funcNode{wake: halt}
			}
			return funcNode{wake: func(round int64, _ []Inbound, _ *Outbox) (int64, bool) {
				return 5, round > 0
			}}
		}),
		"halt-immediately": perNode(func(env *NodeEnv) funcNode {
			if env.ID%2 == 0 {
				return funcNode{wake: halt}
			}
			return funcNode{wake: func(round int64, _ []Inbound, _ *Outbox) (int64, bool) {
				return round + 1, round == 2
			}}
		}),
		"return-mid-compute": perNode(func(env *NodeEnv) funcNode {
			// Round 1 transmits the broadcast staged in round 0; the one
			// staged in round 1 is dropped when the node halts.
			return funcNode{wake: func(round int64, _ []Inbound, out *Outbox) (int64, bool) {
				out.Broadcast(intMsg(7 + round))
				return round + 1, round > 0
			}}
		}),
		"clock-skip": perNode(func(env *NodeEnv) funcNode {
			return funcNode{wake: func(round int64, _ []Inbound, _ *Outbox) (int64, bool) {
				return 1_000_000 + int64(env.ID), round > 0
			}}
		}),
		"random-schedule": perNode(func(env *NodeEnv) funcNode {
			left := 6
			return funcNode{
				start: func(out *Outbox) { out.Broadcast(intMsg(env.Rand.Int63n(100))) },
				wake: func(round int64, in []Inbound, out *Outbox) (int64, bool) {
					if left == 0 {
						return 0, true
					}
					next := round + 1
					if len(in) > 0 && env.Rand.Int63n(2) == 0 {
						next += env.Rand.Int63n(5)
					}
					if left--; left > 0 {
						out.Broadcast(intMsg(env.Rand.Int63n(100)))
					}
					return next, false
				},
			}
		}),
		"talk-then-listen": perNode(func(env *NodeEnv) funcNode {
			if env.ID < 4 {
				return funcNode{wake: func(round int64, in []Inbound, _ *Outbox) (int64, bool) {
					if round == 0 {
						return 2, false
					}
					if env.ID == 0 && len(in) != 0 {
						panic("should hear nothing in a skipped round")
					}
					return 0, true
				}}
			}
			return funcNode{
				start: func(out *Outbox) { out.Broadcast(intMsg(1)) },
				wake: func(round int64, _ []Inbound, out *Outbox) (int64, bool) {
					if round == 0 {
						out.Broadcast(intMsg(2))
					}
					return round + 1, round > 0
				},
			}
		}),
	}
	graphs := map[string]*graph.Graph{
		"cycle": graph.Cycle(10),
		"star":  graph.Star(9),
		"empty": graph.New(6),
	}
	for pname, prog := range progs {
		for gname, g := range graphs {
			t.Run(pname+"/"+gname, func(t *testing.T) {
				runAll(t, g, prog, Config{Seed: 11})
			})
		}
	}
}

func TestSteppedErrorPaths(t *testing.T) {
	stepped := NewSteppedEngine(4)
	g := graph.Path(3)

	t.Run("program-panic", func(t *testing.T) {
		_, err := stepped.Run(context.Background(), g, panicOnNode1, Config{Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "node 1") {
			t.Fatalf("err = %v, want node 1 panic", err)
		}
	})

	t.Run("strict-bandwidth", func(t *testing.T) {
		// The oversized send is staged in OnWake, for round 1.
		sp := perNode(func(env *NodeEnv) funcNode {
			return funcNode{wake: func(round int64, _ []Inbound, out *Outbox) (int64, bool) {
				out.Send(0, bigMsg{bits: 10_000})
				return round + 1, round > 0
			}}
		})
		_, err := stepped.Run(context.Background(), g, sp, Config{Seed: 1, Strict: true})
		var be *BandwidthError
		if !errors.As(err, &be) {
			t.Fatalf("err = %v, want BandwidthError", err)
		}
	})

	t.Run("strict-bandwidth-step-form", func(t *testing.T) {
		sp := StepProgram(func(env *NodeEnv) StepNode { return &bigSender{} })
		_, err := stepped.Run(context.Background(), g, sp, Config{Seed: 1, Strict: true})
		var be *BandwidthError
		if !errors.As(err, &be) {
			t.Fatalf("err = %v, want BandwidthError", err)
		}
	})

	t.Run("strict-bandwidth-step-broadcast", func(t *testing.T) {
		sp := StepProgram(func(env *NodeEnv) StepNode { return &bigBroadcaster{} })
		_, err := stepped.Run(context.Background(), g, sp, Config{Seed: 1, Strict: true})
		var be *BandwidthError
		if !errors.As(err, &be) {
			t.Fatalf("err = %v, want BandwidthError", err)
		}
		if be.Node != 0 || be.Port != 0 {
			t.Fatalf("BandwidthError at node %d port %d, want node 0 port 0", be.Node, be.Port)
		}
	})

	t.Run("max-rounds", func(t *testing.T) {
		_, err := stepped.Run(context.Background(), g, sleepForever, Config{Seed: 1, MaxRounds: 500})
		if !errors.Is(err, ErrMaxRounds) {
			t.Fatalf("err = %v, want ErrMaxRounds", err)
		}
	})

	t.Run("invalid-port-step-form", func(t *testing.T) {
		sp := StepProgram(func(env *NodeEnv) StepNode { return &badPortSender{} })
		_, err := stepped.Run(context.Background(), g, sp, Config{Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "invalid port") {
			t.Fatalf("err = %v, want invalid port", err)
		}
	})

	t.Run("non-monotone-wake", func(t *testing.T) {
		sp := StepProgram(func(env *NodeEnv) StepNode { return &stuckNode{} })
		_, err := stepped.Run(context.Background(), g, sp, Config{Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "not after round") {
			t.Fatalf("err = %v, want schedule error", err)
		}
	})
}

type bigSender struct{}

func (bigSender) Start(out *Outbox) { out.Send(0, bigMsg{bits: 10_000}) }
func (bigSender) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	return 0, true
}

type bigBroadcaster struct{}

func (bigBroadcaster) Start(out *Outbox) { out.Broadcast(bigMsg{bits: 10_000}) }
func (bigBroadcaster) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	return 0, true
}

type badPortSender struct{}

func (badPortSender) Start(out *Outbox) {}
func (badPortSender) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	out.Send(99, intMsg(1))
	return round + 1, false
}

type stuckNode struct{}

func (stuckNode) Start(out *Outbox) {}
func (stuckNode) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	return round, false // not after the current round
}

// TestFuzzEquivalence drives randomized programs over randomized graphs
// through every engine configuration and demands identical per-node
// receive transcripts. The first program sends on every port one
// unicast at a time; the step-form one stages broadcast entries and
// unicast sends, so its runs also compare Metrics and the Tracer's
// message stream.
func TestFuzzEquivalence(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		seed := int64(100 + trial)
		g := graph.GNP(40, 0.12, newNodeRand(seed, 777))
		var ref []int64
		var refName string
		for name, eng := range testEngines() {
			sums := make([]int64, g.N())
			prog := perNode(func(env *NodeEnv) funcNode {
				r, left := env.Rand, 8
				stage := func(out *Outbox) {
					if r.Int63n(3) > 0 {
						msg := intMsg(r.Int63n(1000))
						for p := 0; p < env.Degree; p++ {
							out.Send(p, msg)
						}
					}
				}
				return funcNode{
					start: stage,
					wake: func(round int64, in []Inbound, out *Outbox) (int64, bool) {
						if left == 0 {
							return 0, true
						}
						for _, m := range in {
							sums[env.ID] += int64(m.Msg.(intMsg)) * int64(m.Port+1)
						}
						if r.Int63n(4) == 0 {
							return 0, true
						}
						next := round + 1 + r.Int63n(3)
						if left--; left > 0 {
							stage(out)
						}
						return next, false
					},
				}
			})
			if _, err := eng.Run(context.Background(), g, prog, Config{Seed: seed}); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if ref == nil {
				ref, refName = sums, name
				continue
			}
			if !reflect.DeepEqual(ref, sums) {
				t.Fatalf("trial %d: transcript diverges between %s and %s", trial, refName, name)
			}
		}
	}

	t.Run("step-form", func(t *testing.T) {
		for trial := 0; trial < 8; trial++ {
			seed := int64(200 + trial)
			g := graph.GNP(40, 0.12, newNodeRand(seed, 777))
			if m := checkStepFuzz(t, g, seed); m.MessagesDelivered == 0 {
				t.Fatalf("trial %d: no message delivered", trial)
			}
		}
	})
}

// FuzzSteppedMatchesReference runs TestFuzzEquivalence's step-form
// program on G(n+1, p) drawn from graphSeed under run seed seed, and
// demands identical Metrics, receive transcripts and Tracer streams on
// every engine of the grid. p is folded into [0, 0.25). The seed corpus
// is the test's sixteen trial seeds.
func FuzzSteppedMatchesReference(f *testing.F) {
	for trial := int64(0); trial < 8; trial++ {
		f.Add(100+trial, 100+trial, uint8(39), 0.12)
		f.Add(200+trial, 200+trial, uint8(39), 0.12)
	}
	f.Fuzz(func(t *testing.T, graphSeed, seed int64, n uint8, p float64) {
		if math.IsNaN(p) {
			p = 0
		}
		g := graph.GNP(int(n)+1, math.Mod(math.Abs(p), 0.25), newNodeRand(graphSeed, 777))
		checkStepFuzz(t, g, seed)
	})
}

// checkStepFuzz runs the step-form fuzz program on g under seed on every
// engine of the grid and fails t unless Metrics, receive transcripts
// and Tracer streams all agree. It returns the common Metrics.
func checkStepFuzz(t *testing.T, g *graph.Graph, seed int64) *Metrics {
	t.Helper()
	var ref fuzzRun
	var refName string
	for name, eng := range testEngines() {
		run := fuzzRun{logs: make([]uint64, g.N()), tracer: &hashTracer{}}
		sp := StepProgram(func(env *NodeEnv) StepNode {
			return &fuzzStepNode{env: env, log: &run.logs[env.ID], left: 8}
		})
		m, err := eng.Run(context.Background(), g, sp, Config{Seed: seed, Tracer: run.tracer})
		if err != nil {
			t.Fatalf("seed %d %s: %v", seed, name, err)
		}
		run.m = m
		if ref.m == nil {
			ref, refName = run, name
			continue
		}
		if !reflect.DeepEqual(ref.m, run.m) {
			t.Fatalf("seed %d: metrics diverge: %s=%+v vs %s=%+v", seed, refName, ref.m, name, run.m)
		}
		if !reflect.DeepEqual(ref.logs, run.logs) {
			t.Fatalf("seed %d: receive transcripts diverge between %s and %s", seed, refName, name)
		}
		if *ref.tracer != *run.tracer {
			t.Fatalf("seed %d: tracer streams diverge: %s=%+v vs %s=%+v", seed, refName, *ref.tracer, name, *run.tracer)
		}
	}
	return ref.m
}

// fuzzRun is one engine's outcome of a step-form fuzz trial.
type fuzzRun struct {
	m      *Metrics
	logs   []uint64 // per-node receive transcript hashes
	tracer *hashTracer
}

// mixLog folds one value into a transcript hash; the fold is
// order-sensitive, so transcripts match only when every event arrives
// in the same order.
func mixLog(h uint64, x int64) uint64 { return (h^uint64(x))*0x100000001b3 + 0x9e3779b97f4a7c15 }

// hashTracer folds the engine's event stream, in order, into hashes.
type hashTracer struct {
	awake, messages uint64
}

func (h *hashTracer) NodeAwake(round int64, node int) {
	h.awake = mixLog(mixLog(h.awake, round), int64(node))
}

func (h *hashTracer) Message(round int64, from, to, bits int, delivered bool) {
	x := mixLog(mixLog(h.messages, round), int64(from))
	x = mixLog(mixLog(x, int64(to)), int64(bits))
	if delivered {
		x = mixLog(x, 1)
	}
	h.messages = x
}

// fuzzStepNode is a native step-form node for TestFuzzEquivalence. At
// each wake it stages a random mix of broadcasts and unicast sends on
// random ports (sometimes two on one port), then sleeps a random
// number of rounds or halts. It folds every received (round, port,
// value) into its transcript hash.
type fuzzStepNode struct {
	env  *NodeEnv
	log  *uint64
	left int
}

func (n *fuzzStepNode) stage(out *Outbox) {
	r, deg := n.env.Rand, n.env.Degree
	if r.Intn(3) > 0 {
		out.Broadcast(intMsg(r.Int63n(1000)))
	}
	for i := r.Intn(3); i > 0 && deg > 0; i-- {
		p := r.Intn(deg)
		out.Send(p, intMsg(r.Int63n(1000)))
		if r.Intn(4) == 0 {
			out.Send(p, intMsg(r.Int63n(1000)))
		}
	}
	if r.Intn(4) == 0 {
		out.Broadcast(intMsg(r.Int63n(1000)))
	}
}

func (n *fuzzStepNode) Start(out *Outbox) { n.stage(out) }

func (n *fuzzStepNode) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	for _, m := range inbox {
		*n.log = mixLog(mixLog(mixLog(*n.log, round), int64(m.Port)), int64(m.Msg.(intMsg)))
	}
	n.left--
	if n.left == 0 || n.env.Rand.Intn(5) == 0 {
		return 0, true
	}
	n.stage(out)
	return round + 1 + n.env.Rand.Int63n(3), false
}

// TestWakeQueueOrder checks the bucket queue pops rounds in order with
// node indices sorted regardless of insertion order.
func TestWakeQueueOrder(t *testing.T) {
	type wake struct {
		round int64
		node  int
	}
	type popped struct {
		round int64
		nodes []int
	}
	// pop drains want from q, checking each round and its nodes.
	pop := func(t *testing.T, q *wakeQueue, want ...popped) {
		t.Helper()
		for i, w := range want {
			if q.empty() {
				t.Fatalf("pop %d: queue empty, want round %d", i, w.round)
			}
			r, nodes := q.pop()
			if r != w.round || !reflect.DeepEqual(nodes, w.nodes) {
				t.Fatalf("pop %d: round %d nodes %v, want round %d nodes %v", i, r, nodes, w.round, w.nodes)
			}
		}
	}
	add := func(q *wakeQueue, wakes ...wake) {
		for _, w := range wakes {
			q.add(w.round, w.node)
		}
	}

	t.Run("basic", func(t *testing.T) {
		q := newWakeQueue(10)
		add(q, wake{7, 3}, wake{2, 9}, wake{7, 1}, wake{2, 4}, wake{5, 0})
		pop(t, q, popped{2, []int{4, 9}}, popped{5, []int{0}}, popped{7, []int{1, 3}})
		if !q.empty() {
			t.Fatal("queue not empty after draining")
		}
	})

	t.Run("interleaved-unsorted", func(t *testing.T) {
		// Alternating rounds defeat the cached bucket on every add, and
		// round 3 receives its nodes in descending order, so it takes
		// the sorting path while round 4 stays in arrival order.
		q := newWakeQueue(10)
		add(q, wake{3, 8}, wake{4, 1}, wake{3, 5}, wake{4, 6}, wake{3, 2}, wake{4, 7}, wake{3, 9})
		pop(t, q, popped{3, []int{2, 5, 8, 9}}, popped{4, []int{1, 6, 7}})
	})

	t.Run("pop-cached-round", func(t *testing.T) {
		// The last add caches round 1's bucket; popping round 1 must
		// drop the cache, so later adds, including one to round 1
		// again, land in live buckets.
		q := newWakeQueue(10)
		add(q, wake{2, 4}, wake{1, 0}, wake{1, 2})
		pop(t, q, popped{1, []int{0, 2}})
		add(q, wake{3, 2}, wake{3, 0}, wake{1, 6})
		pop(t, q, popped{1, []int{6}}, popped{2, []int{4}}, popped{3, []int{0, 2}})
		if !q.empty() {
			t.Fatal("queue not empty after draining")
		}
	})

	t.Run("reuse-freed-bucket", func(t *testing.T) {
		// A freed bucket is reused for a new round and must start
		// empty and sorted, whatever its previous round left in it.
		q := newWakeQueue(10)
		add(q, wake{1, 5}, wake{1, 3}, wake{1, 1})
		pop(t, q, popped{1, []int{1, 3, 5}})
		add(q, wake{4, 2}, wake{4, 8})
		if len(q.buckets) != 1 {
			t.Fatalf("queue holds %d buckets, want the freed one reused", len(q.buckets))
		}
		pop(t, q, popped{4, []int{2, 8}})
		add(q, wake{6, 7}, wake{9, 3}, wake{6, 0})
		if len(q.buckets) != 2 {
			t.Fatalf("queue holds %d buckets, want 2", len(q.buckets))
		}
		pop(t, q, popped{6, []int{0, 7}}, popped{9, []int{3}})
	})
}

func TestEngineNames(t *testing.T) {
	if NewSteppedEngine(2).Name() != "stepped" || newReferenceEngine().Name() != "reference" {
		t.Error("engine names wrong")
	}
	if Default().Name() != "stepped" {
		t.Error("default engine must be stepped")
	}
	if NewSteppedEngine(3).(*steppedEngine).workers != 3 {
		t.Error("worker count not honored")
	}
}
