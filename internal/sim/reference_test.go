package sim

import (
	"context"
	"fmt"
	"sort"
	"time"

	"awakemis/internal/graph"
)

// referenceEngine is the plainest reading of the SLEEPING-CONGEST
// model, kept in test code as the independent oracle for the stepped
// engine. It shares with that engine only Outbox, NodeEnv, Metrics,
// Config.withDefaults and the node RNG derivation: no slabs, no
// sharding, no reverse-port table, no wake queue.
//
// Its state is a map from round to the nodes that wake in it. Each
// round it routes every staged send one at a time: senders in
// ascending order, each sender's staged entries in staging order, and
// a broadcast as one send per port in port order. A delivered send's
// arrival port is found by a linear search of the receiver's row, and
// each inbox is a fresh slice, stably sorted by port. Nodes then step
// one at a time in ascending order.
type referenceEngine struct{}

func newReferenceEngine() Engine { return referenceEngine{} }

// Run implements Engine.
func (referenceEngine) Run(ctx context.Context, g *graph.Graph, sp StepProgram, cfg Config) (*Metrics, error) {
	cfg, err := cfg.withDefaults(g.N())
	if err != nil {
		return nil, err
	}
	n := g.N()
	m := &Metrics{AwakePerNode: make([]int64, n)}
	nodes := make([]StepNode, n)
	outs := make([]Outbox, n)
	wakes := map[int64][]int{}
	for v := 0; v < n; v++ {
		outs[v].configure(v, g.Degree(v), &cfg)
		rnd := nodeRand(cfg.Seed, v)
		env := &NodeEnv{ID: v, Degree: g.Degree(v), N: cfg.N, Bandwidth: cfg.Bandwidth, Rand: &rnd}
		if err := refCall(func() {
			nodes[v] = sp(env)
			nodes[v].Start(&outs[v])
		}); err != nil {
			return m, fmt.Errorf("sim: node %d: %w", v, err)
		}
		wakes[0] = append(wakes[0], v)
	}

	for len(wakes) > 0 {
		if err := ctx.Err(); err != nil {
			return m, fmt.Errorf("sim: aborted after round %d: %w", m.Rounds, err)
		}
		round := int64(-1)
		for r := range wakes {
			if round < 0 || r < round {
				round = r
			}
		}
		awake := wakes[round]
		delete(wakes, round)
		sort.Ints(awake)
		if round > cfg.MaxRounds {
			return m, fmt.Errorf("%w (round %d)", ErrMaxRounds, round)
		}
		start := time.Now()
		before := *m
		m.ExecutedRounds++
		m.Rounds = round + 1
		isAwake := map[int]bool{}
		for _, v := range awake {
			m.noteAwake(v)
			isAwake[v] = true
		}

		inbox := map[int][]Inbound{}
		send := func(v, port int, msg Message) {
			bits := msg.Bits()
			m.MessagesSent++
			m.BitsSent += int64(bits)
			if bits > m.MaxMessageBits {
				m.MaxMessageBits = bits
			}
			w := g.Neighbor(v, port)
			if !isAwake[w] {
				return // a sleeping receiver loses the message
			}
			m.MessagesDelivered++
			for p, u := range g.Neighbors(w) {
				if int(u) == v {
					inbox[w] = append(inbox[w], Inbound{Port: p, Msg: msg})
					return
				}
			}
			panic(fmt.Sprintf("reference: node %d is not a neighbor of %d", v, w))
		}
		for _, v := range awake {
			for _, om := range outs[v].msgs {
				if om.port == broadcastPort {
					for p := 0; p < g.Degree(v); p++ {
						send(v, p, om.msg)
					}
				} else {
					send(v, int(om.port), om.msg)
				}
			}
		}

		failed := -1
		var failErr error
		next := make(map[int]int64, len(awake))
		for _, v := range awake {
			in := inbox[v]
			sort.SliceStable(in, func(i, j int) bool { return in[i].Port < in[j].Port })
			outs[v].reset()
			var r int64
			var done bool
			if err := refCall(func() { r, done = nodes[v].OnWake(round, in, &outs[v]) }); err != nil {
				if failed < 0 {
					failed, failErr = v, err
				}
				continue
			}
			if done {
				nodes[v] = nil
				continue
			}
			next[v] = r
		}
		if failed >= 0 {
			return m, fmt.Errorf("sim: node %d: %w", failed, failErr)
		}
		for _, v := range awake {
			r, ok := next[v]
			if !ok {
				continue
			}
			if r <= round {
				return m, fmt.Errorf("sim: node %d scheduled wake %d not after round %d", v, r, round)
			}
			wakes[r] = append(wakes[r], v)
		}
		if cfg.Observer != nil {
			cfg.Observer.ObserveRound(RoundStat{
				Round:     round,
				Nodes:     awake,
				Sent:      m.MessagesSent - before.MessagesSent,
				Delivered: m.MessagesDelivered - before.MessagesDelivered,
				Bits:      m.BitsSent - before.BitsSent,
				Elapsed:   time.Since(start),
			})
		}
	}
	return m, nil
}

// refCall runs f, converting a panic into an error.
func refCall(f func()) (err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case error:
			err = fmt.Errorf("program panic: %w", r)
		default:
			err = fmt.Errorf("program panic: %v", r)
		}
	}()
	f()
	return nil
}
