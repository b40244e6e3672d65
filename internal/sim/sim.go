// Package sim implements the SLEEPING-CONGEST model of the paper
// (§1.3): an anonymous, port-numbered, synchronous message-passing
// network in which every node is either awake or asleep in each round.
//
// Each round has the paper's three steps: (1) awake nodes perform local
// computation, (2) awake nodes send messages to adjacent nodes, and
// (3) awake nodes receive messages sent this round by awake neighbors.
// Messages sent to (or by) a sleeping node are lost. Nodes know the
// current round number whenever they are awake.
//
// # Node programs
//
// An algorithm is a StepProgram: a factory for one StepNode state
// machine per node. The engine calls OnWake once per awake round with
// the round's inbox, and the node returns the messages for its next
// awake round plus when that round is. Deeply sequential procedures
// are written against a Machine, which turns a continuation-passing
// procedure into a StepNode.
//
// # Engine
//
// The stepped engine (NewSteppedEngine, the Default) keeps all node
// state inline, drives awake nodes from a wake-time bucket queue, and
// fans each round's OnWake calls across a worker pool in deterministic
// node-index shards. It runs no goroutine per node and no channel
// handshake per round, which makes million-node runs feasible.
//
// # Determinism contract
//
// For a fixed (graph, program, Config.Seed), the stepped engine
// produces bit-identical results at every worker count: the same
// per-node outputs, the same Metrics (including AwakePerNode), and the
// same message streams. This holds because (a) each node owns a
// private RNG stream derived from Config.Seed and its index, (b) a
// node's step depends only on its own state and inbox, and (c) routing
// is serial and ordered: senders are processed in ascending node
// order, a broadcast counts as one send per port in port order, and
// each inbox is sorted by arrival port. The engine delivers through a
// counting sort into one flat inbox buffer, expands each staged
// broadcast over the sender's CSR row, and reads arrival ports from a
// reverse-port table built once per run. The tests check it against a
// reference simulator (reference_test.go) that implements the same
// semantics in the plainest way, for every algorithm in the
// repository.
//
// On a failing run the engine aborts at the first failing round and
// surfaces the lowest-indexed failing node's error.
//
// The engine skips over rounds in which every node sleeps, so round
// numbers are exact (round complexity is measured faithfully) while
// simulation cost is proportional to the total number of awake
// node-rounds. Awake complexity (§1.4) is metered per node.
package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"awakemis/internal/bitio"
	"awakemis/internal/graph"
)

// Message is a payload sent over an edge in one round. Bits reports the
// exact number of bits the message occupies on the wire; the engine
// enforces the CONGEST bandwidth bound against it. Bits must be a pure
// function of the message: engines may call it once for a broadcast
// and charge the result to every port.
type Message interface {
	Bits() int
}

// Inbound is a message received by a node, tagged with the local port
// it arrived on.
type Inbound struct {
	Port int
	Msg  Message
}

// Config controls a simulation run. The zero value gives sensible
// defaults: bandwidth 16·⌈log₂N⌉+16 bits, strict CONGEST enforcement
// off, a generous round cutoff, N equal to the actual node count, and
// the default (stepped) engine.
type Config struct {
	// Seed derives every node's private randomness; identical seeds
	// replay identical executions at every worker count.
	Seed int64
	// N is the common polynomial upper bound on the node count known to
	// every node (the paper's N). Zero means the exact node count.
	N int
	// Bandwidth is the per-message bit budget B = O(log N). Zero means
	// the default 16·⌈log₂N⌉+16.
	Bandwidth int
	// Strict makes any Send whose message exceeds Bandwidth an error.
	Strict bool
	// MaxRounds aborts runs that exceed this round count (safety net
	// against schedule bugs). Zero means 1<<40.
	MaxRounds int64
	// Tracer, if non-nil, receives execution events (awake rounds and
	// message routing) as they happen. Tracer methods are called from
	// the engine goroutine only.
	Tracer Tracer
	// Observer, if non-nil, receives one flat RoundStat per executed
	// round. Unlike Tracer it carries no per-node or per-message detail,
	// so attaching it costs O(1) per round regardless of n. Observer
	// methods are called from the engine goroutine only.
	Observer RoundObserver
	// Engine runs the program. Nil means Default(); tests set it to
	// the reference simulator.
	Engine Engine
}

// withDefaults validates cfg against the node count and fills defaults.
func (cfg Config) withDefaults(n int) (Config, error) {
	if cfg.N == 0 {
		cfg.N = n
	}
	if cfg.N < n {
		return cfg, fmt.Errorf("sim: N=%d below node count %d", cfg.N, n)
	}
	if cfg.Bandwidth == 0 {
		cfg.Bandwidth = DefaultBandwidth(cfg.N)
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 1 << 40
	}
	return cfg, nil
}

// Tracer observes a simulation for debugging and visualization.
// Implementations must be cheap; they run on the engine's hot path.
type Tracer interface {
	// NodeAwake fires when a node begins an awake round.
	NodeAwake(round int64, node int)
	// Message fires for every sent message; delivered reports whether
	// the receiver was awake.
	Message(round int64, from, to, bits int, delivered bool)
}

// RoundStat is the flat aggregate of one executed round: no maps, no
// per-node state, just counters. The message counters are deltas for
// this round alone; summed over all observed rounds they equal the
// corresponding final Metrics totals exactly (the identity is frozen by
// test at every worker count and on the reference simulator).
type RoundStat struct {
	// Round is the round number (clock); rounds where every node sleeps
	// are skipped, so consecutive stats may jump.
	Round int64
	// Awake is the number of nodes awake this round.
	Awake int
	// Sent counts messages handed to Send this round.
	Sent int64
	// Delivered counts this round's messages that reached an awake
	// receiver (Sent - Delivered were lost to sleeping nodes).
	Delivered int64
	// Bits is the total wire size of this round's sends.
	Bits int64
	// Elapsed is the wall time the engine spent simulating the round.
	// It is the only nondeterministic field.
	Elapsed time.Duration
}

// RoundObserver receives per-round aggregates as the engine executes.
// ObserveRound fires once per executed round, in round order, after the
// round completed successfully (rounds aborted by an error or
// cancellation are not observed). Implementations should be cheap and
// ideally allocation-free: the hook itself adds no heap allocations,
// and the engine's steady-state allocation guards budget at most one
// allocation per round for the observer's own bookkeeping.
type RoundObserver interface {
	ObserveRound(RoundStat)
}

// roundProbe converts the run's cumulative Metrics counters into
// per-round deltas for a RoundObserver. With a nil observer both calls
// are a single predictable branch, preserving the zero-allocation
// round loop.
type roundProbe struct {
	obs       RoundObserver
	start     time.Time
	sent      int64
	delivered int64
	bits      int64
}

// begin snapshots the cumulative counters at the top of a round.
func (p *roundProbe) begin(m *Metrics) {
	if p.obs == nil {
		return
	}
	p.sent, p.delivered, p.bits = m.MessagesSent, m.MessagesDelivered, m.BitsSent
	p.start = time.Now()
}

// end emits the round's RoundStat once the round has fully completed.
func (p *roundProbe) end(m *Metrics, round int64, awake int) {
	if p.obs == nil {
		return
	}
	p.obs.ObserveRound(RoundStat{
		Round:     round,
		Awake:     awake,
		Sent:      m.MessagesSent - p.sent,
		Delivered: m.MessagesDelivered - p.delivered,
		Bits:      m.BitsSent - p.bits,
		Elapsed:   time.Since(p.start),
	})
}

// Metrics aggregates the complexity measures of a run.
type Metrics struct {
	// Rounds is the round complexity: 1 + the last round in which any
	// node was awake (rounds are numbered from 0).
	Rounds int64
	// ExecutedRounds counts rounds the engine actually simulated (rounds
	// with at least one awake node); the difference from Rounds is the
	// time all nodes slept through.
	ExecutedRounds int64
	// AwakePerNode[v] is A_v, the number of rounds node v was awake.
	AwakePerNode []int64
	// MaxAwake is the worst-case awake complexity max_v A_v.
	MaxAwake int64
	// TotalAwake is Σ_v A_v (node-averaged awake = TotalAwake / n).
	TotalAwake int64
	// MessagesSent counts messages handed to Send by awake nodes.
	MessagesSent int64
	// MessagesDelivered counts messages that reached an awake receiver.
	MessagesDelivered int64
	// BitsSent is the total size of all sent messages.
	BitsSent int64
	// MaxMessageBits is the largest single message observed.
	MaxMessageBits int
}

// AvgAwake returns the node-averaged awake complexity.
func (m *Metrics) AvgAwake() float64 {
	if len(m.AwakePerNode) == 0 {
		return 0
	}
	return float64(m.TotalAwake) / float64(len(m.AwakePerNode))
}

// noteAwake meters the start of an awake round for node v.
func (m *Metrics) noteAwake(v int, clock int64, tracer Tracer) {
	m.AwakePerNode[v]++
	m.TotalAwake++
	if m.AwakePerNode[v] > m.MaxAwake {
		m.MaxAwake = m.AwakePerNode[v]
	}
	if tracer != nil {
		tracer.NodeAwake(clock, v)
	}
}

// ErrMaxRounds is returned when a run exceeds Config.MaxRounds.
var ErrMaxRounds = errors.New("sim: exceeded MaxRounds")

// BandwidthError reports a CONGEST violation under Config.Strict.
type BandwidthError struct {
	Node, Port, Bits, Budget int
}

func (e *BandwidthError) Error() string {
	return fmt.Sprintf("sim: node %d port %d sent %d bits, budget %d",
		e.Node, e.Port, e.Bits, e.Budget)
}

// DefaultBandwidth returns the default CONGEST budget for a given N.
func DefaultBandwidth(n int) int {
	if n < 2 {
		n = 2
	}
	return 16*bitio.UintBits(uint64(n)) + 16
}

// outMsg is a staged send: a message queued on a local port, or on
// every port when port is broadcastPort. For a unicast send the
// stepped engine's router records in to the receiving neighbor, or -1
// when the receiver sleeps, so its second pass skips lost messages
// without looking the receiver up again.
type outMsg struct {
	port int32
	to   int32
	msg  Message
}

// broadcastPort marks the one staged entry of an Outbox.Broadcast,
// which stands for a send on every port in port order.
const broadcastPort = -1

// RunStep simulates prog on every node of g under cfg and returns the
// measured complexity metrics. It returns an error if any node program
// panicked, violated the CONGEST bound under Strict, or the run
// exceeded MaxRounds. The engine is cfg.Engine (Default() when nil).
func RunStep(g *graph.Graph, prog StepProgram, cfg Config) (*Metrics, error) {
	return RunStepContext(context.Background(), g, prog, cfg)
}

// RunStepContext is RunStep under a context: the engine polls ctx at
// every round boundary and aborts the simulation — returning an error
// that wraps ctx.Err() — once it is cancelled or past its deadline. A
// nil ctx means context.Background().
func RunStepContext(ctx context.Context, g *graph.Graph, prog StepProgram, cfg Config) (*Metrics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return engineOf(cfg).Run(ctx, g, prog, cfg)
}

// sortInbox orders a round's inbox by arrival port (part of the
// determinism contract). The router fills inboxes in ascending sender
// order, which already yields ascending receiver ports (port numbering
// is sorted by neighbor index), so this insertion sort is a stable
// O(len) verification pass in practice — and allocates nothing, unlike
// sort.Slice, keeping it off the steady-state heap.
func sortInbox(in []Inbound) {
	for i := 1; i < len(in); i++ {
		for j := i; j > 0 && in[j].Port < in[j-1].Port; j-- {
			in[j], in[j-1] = in[j-1], in[j]
		}
	}
}

// wakeQueue schedules (round, node) wake-ups in O(n) space. Each
// pending round owns a bucket: a FIFO list of its nodes threaded
// through one link per node (a node waits in at most one bucket at a
// time), and a min-heap orders the distinct pending rounds. add looks
// a round's bucket up in the index map only when it targets a
// different round than the previous add, and nothing grows by append
// once the queue has seen its widest schedule. Each bucket records
// whether its nodes arrived in ascending order, so pop sorts only the
// buckets that did not; either way a round executes in ascending node
// order, as the determinism contract requires.
type wakeQueue struct {
	link    []int32         // next node in the same bucket
	buckets []wakeBucket    // bucket storage, indexed by bucket id
	free    []int32         // ids of buckets released by pop
	index   map[int64]int32 // pending round -> bucket id
	heap    []int64         // min-heap of distinct pending rounds
	popped  []int           // the nodes of the last pop

	// The previous add's round and bucket; lastBucket is -1 when no
	// bucket is cached (at start, and once the cached round is popped).
	lastRound  int64
	lastBucket int32
}

// wakeBucket is one pending round's node list.
type wakeBucket struct {
	head, tail int32 // first and last node added
	size       int32
	sorted     bool // nodes were added in ascending order
}

// newWakeQueue returns an empty queue for nodes 0..n-1.
func newWakeQueue(n int) *wakeQueue {
	return &wakeQueue{
		link:       make([]int32, n),
		index:      make(map[int64]int32),
		popped:     make([]int, 0, n),
		lastBucket: -1,
	}
}

func (q *wakeQueue) empty() bool { return len(q.heap) == 0 }

// add schedules node v, which must not already be pending, to wake in
// round r.
func (q *wakeQueue) add(r int64, v int) {
	id := q.lastBucket
	if id < 0 || r != q.lastRound {
		var ok bool
		if id, ok = q.index[r]; !ok {
			id = q.newBucket()
			q.index[r] = id
			q.pushRound(r)
		}
		q.lastRound, q.lastBucket = r, id
	}
	b := &q.buckets[id]
	if b.size == 0 {
		b.head, b.sorted = int32(v), true
	} else {
		q.link[b.tail] = int32(v)
		if int32(v) < b.tail {
			b.sorted = false
		}
	}
	b.tail = int32(v)
	b.size++
}

// newBucket returns the id of an empty bucket, reusing a released one
// when it can.
func (q *wakeQueue) newBucket() int32 {
	if n := len(q.free); n > 0 {
		id := q.free[n-1]
		q.free = q.free[:n-1]
		q.buckets[id] = wakeBucket{}
		return id
	}
	q.buckets = append(q.buckets, wakeBucket{})
	return int32(len(q.buckets) - 1)
}

// pop removes and returns the earliest scheduled round and its nodes in
// ascending index order. The slice is owned by the queue and valid
// until the next pop.
func (q *wakeQueue) pop() (int64, []int) {
	r := q.popRound()
	id := q.index[r]
	delete(q.index, r)
	if id == q.lastBucket {
		q.lastBucket = -1
	}
	b := q.buckets[id]
	q.free = append(q.free, id)
	nodes := q.popped[:b.size]
	v := b.head
	for i := range nodes {
		nodes[i] = int(v)
		v = q.link[v]
	}
	if !b.sorted {
		slices.Sort(nodes)
	}
	return r, nodes
}

func (q *wakeQueue) pushRound(r int64) {
	q.heap = append(q.heap, r)
	i := len(q.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.heap[p] <= q.heap[i] {
			break
		}
		q.heap[p], q.heap[i] = q.heap[i], q.heap[p]
		i = p
	}
}

func (q *wakeQueue) popRound() int64 {
	h := q.heap
	r := h[0]
	last := len(h) - 1
	h[0] = h[last]
	q.heap = h[:last]
	h = q.heap
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if rr < len(h) && h[rr] < h[small] {
			small = rr
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return r
}
