package sim

import (
	"context"
	"slices"
	"testing"
	"time"

	"awakemis/internal/graph"
)

// obsLog records every RoundStat it observes. The engine owns each
// stat's Nodes, so obsLog copies them into one growing buffer and
// points the recorded stat at its copy.
type obsLog struct {
	stats []RoundStat
	nodes []int // every observed round's Nodes, in round order
}

func (o *obsLog) ObserveRound(st RoundStat) {
	at := len(o.nodes)
	o.nodes = append(o.nodes, st.Nodes...)
	st.Nodes = o.nodes[at:len(o.nodes):len(o.nodes)]
	o.stats = append(o.stats, st)
}

// staggerNode broadcasts every awake round and sleeps id%3 extra rounds
// between wakes, so the schedule loses messages to sleeping receivers
// and skips rounds where nobody is awake — exercising every RoundStat
// field.
type staggerNode struct {
	id     int
	rounds int64
}

func (s *staggerNode) Start(out *Outbox) { out.Broadcast(intMsg(0)) }

func (s *staggerNode) OnWake(round int64, inbox []Inbound, out *Outbox) (int64, bool) {
	if round >= s.rounds {
		return 0, true
	}
	out.Broadcast(intMsg(round))
	return round + 1 + int64(s.id%3), false
}

var staggerProg StepProgram = func(env *NodeEnv) StepNode {
	return &staggerNode{id: env.ID, rounds: 20}
}

// TestObserverTotalsMatchMetrics pins the observer identity: summing
// the per-round deltas over all observed rounds reproduces the final
// Metrics exactly, each round's Nodes ascend, and counting each node's
// rounds over the stream gives Metrics.AwakePerNode, on the reference
// simulator and the stepped engine at several worker counts; the
// deterministic RoundStat fields are bit-identical across all engine
// configurations.
func TestObserverTotalsMatchMetrics(t *testing.T) {
	g := graph.Grid(16, 16)
	var ref []RoundStat
	var refName string
	for name, eng := range testEngines() {
		obs := &obsLog{}
		cfg := Config{Seed: 11, Engine: eng, Observer: obs}
		m, err := eng.Run(context.Background(), g, staggerProg, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sent, delivered, bits, awake int64
		perNode := make([]int64, g.N())
		prev := int64(-1)
		for _, st := range obs.stats {
			if st.Round <= prev {
				t.Fatalf("%s: rounds not strictly increasing: %d after %d", name, st.Round, prev)
			}
			prev = st.Round
			for i, v := range st.Nodes {
				if i > 0 && v <= st.Nodes[i-1] {
					t.Fatalf("%s: round %d nodes not ascending: %v", name, st.Round, st.Nodes)
				}
				perNode[v]++
			}
			sent += st.Sent
			delivered += st.Delivered
			bits += st.Bits
			awake += int64(len(st.Nodes))
		}
		if int64(len(obs.stats)) != m.ExecutedRounds {
			t.Errorf("%s: observed %d rounds, metrics executed %d", name, len(obs.stats), m.ExecutedRounds)
		}
		if last := obs.stats[len(obs.stats)-1]; last.Round+1 != m.Rounds {
			t.Errorf("%s: last observed round %d, metrics rounds %d", name, last.Round, m.Rounds)
		}
		if sent != m.MessagesSent || delivered != m.MessagesDelivered || bits != m.BitsSent {
			t.Errorf("%s: observer totals sent/delivered/bits = %d/%d/%d, metrics %d/%d/%d",
				name, sent, delivered, bits, m.MessagesSent, m.MessagesDelivered, m.BitsSent)
		}
		if awake != m.TotalAwake {
			t.Errorf("%s: observer awake total %d, metrics %d", name, awake, m.TotalAwake)
		}
		if !slices.Equal(perNode, m.AwakePerNode) {
			t.Errorf("%s: per-node awake rounds from the observer differ from Metrics.AwakePerNode", name)
		}
		if delivered == sent {
			t.Errorf("%s: schedule lost no messages; test is not exercising losses", name)
		}
		if ref == nil {
			ref, refName = obs.stats, name
			continue
		}
		if len(ref) != len(obs.stats) {
			t.Fatalf("round count diverges: %s=%d vs %s=%d", refName, len(ref), name, len(obs.stats))
		}
		for i := range ref {
			a, b := ref[i], obs.stats[i]
			if a.Round != b.Round || !slices.Equal(a.Nodes, b.Nodes) ||
				a.Sent != b.Sent || a.Delivered != b.Delivered || a.Bits != b.Bits {
				t.Fatalf("round stat %d diverges: %s=%+v vs %s=%+v", i, refName, a, name, b)
			}
		}
	}
}

// slowObserver records each round's Elapsed and busy-waits in every
// ObserveRound call, timing its own calls, so that the observer's time
// outweighs the rounds'.
type slowObserver struct {
	elapsed []time.Duration
	calls   []time.Duration // the wall time of each ObserveRound call
}

func (o *slowObserver) ObserveRound(st RoundStat) {
	start := time.Now()
	o.elapsed = append(o.elapsed, st.Elapsed)
	for time.Since(start) < 20*time.Microsecond {
	}
	o.calls = append(o.calls, time.Since(start))
}

// TestObserverElapsedCoversLoop pins what RoundStat.Elapsed measures:
// the gap between the ends of consecutive rounds, so every value is
// non-negative, the sum stays within the wall time around
// RunStepContext, and the sum covers every ObserveRound call but the
// last.
func TestObserverElapsedCoversLoop(t *testing.T) {
	g := graph.Cycle(16)
	obs := &slowObserver{}
	start := time.Now()
	if _, err := RunStepContext(context.Background(), g, staggerProg, Config{Seed: 3, Observer: obs}); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	var sum, observing time.Duration
	for i, d := range obs.elapsed {
		if d < 0 {
			t.Fatalf("round stat %d: Elapsed %v < 0", i, d)
		}
		sum += d
	}
	for _, d := range obs.calls[:len(obs.calls)-1] {
		observing += d
	}
	if sum > wall {
		t.Errorf("Elapsed sums to %v, beyond RunStepContext's wall time %v", sum, wall)
	}
	if sum < observing {
		t.Errorf("Elapsed sums to %v, less than the %v spent in the observer before the last round", sum, observing)
	}
}

// TestObserverMetricsUnchanged asserts that attaching an observer never
// perturbs the run itself: metrics are bit-identical with and without.
func TestObserverMetricsUnchanged(t *testing.T) {
	g := graph.Cycle(64)
	bare, err := RunStepContext(context.Background(), g, staggerProg, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := RunStepContext(context.Background(), g, staggerProg, Config{Seed: 5, Observer: &obsLog{}})
	if err != nil {
		t.Fatal(err)
	}
	if bare.MessagesSent != observed.MessagesSent || bare.Rounds != observed.Rounds ||
		bare.TotalAwake != observed.TotalAwake || bare.BitsSent != observed.BitsSent {
		t.Errorf("observer perturbed the run: bare=%+v observed=%+v", bare, observed)
	}
}

// TestObserverRoundAllocs extends the zero-allocation guard to the
// observer hook: with the observer nil the round loop still allocates
// nothing (the probe is a single branch), and with a recording observer
// attached the budget is at most one allocation per round (the
// observer's own append, amortized).
func TestObserverRoundAllocs(t *testing.T) {
	run := func(t *testing.T, obs RoundObserver, budget float64) {
		g := graph.Cycle(512)
		cfg, err := Config{Seed: 7, Observer: obs}.withDefaults(g.N())
		if err != nil {
			t.Fatal(err)
		}
		rs, err := newStepState(g, allocProbe, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer rs.close()
		for i := 0; i < 8; i++ {
			if err := rs.round(1); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			if err := rs.round(1); err != nil {
				t.Fatal(err)
			}
		})
		if avg > budget {
			t.Errorf("steady-state round allocates %.2f objects/round, budget %.0f", avg, budget)
		}
	}
	t.Run("nil-observer", func(t *testing.T) { run(t, nil, 0) })
	t.Run("attached", func(t *testing.T) { run(t, &obsLog{}, 1) })
}
