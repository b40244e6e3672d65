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
// The stepped engine (NewSteppedEngine, the default) keeps all node
// state inline, drives awake nodes from a wake-time bucket queue, and
// fans each round's OnWake calls, with the inbox gathers of a
// broadcast-only round, across a worker pool in deterministic
// node-index shards. It runs no goroutine per node and no channel
// handshake per round, which makes million-node runs feasible. The
// default sizes its pool from runtime.GOMAXPROCS(0) at the start of
// each run; nothing above this package sets a worker count, because
// the count never changes results.
//
// # Determinism contract
//
// For a fixed (graph, program, Config.Seed), the stepped engine
// produces bit-identical results at every worker count: the same
// per-node outputs, the same Metrics (including AwakePerNode), the
// same message streams and the same RoundStat stream. This holds
// because (a) each node owns a private RNG stream, a Rand of 8 bytes
// of splitmix64 state derived from Config.Seed and its index, reached
// through NodeEnv.Rand, (b) a node's step depends only on its own
// state and inbox, and (c) routing is ordered: the engine goroutine
// meters every round's sends, a broadcast counting as one send per
// port, and each inbox is sorted by arrival port. The engine picks one
// of two delivery paths from what the awake nodes staged, never from
// the program. In a round in which every awake node staged at most one
// entry, a Broadcast, the engine goroutine only publishes each
// broadcast; every stepping node then gathers its own inbox, just
// before its OnWake and on the worker pool when the round shards, by
// walking its sorted CSR row once and taking its broadcasting
// neighbours' messages in port order. A round in which any awake node
// staged a unicast Send, or more than one entry, is delivered serially
// into one flat inbox buffer by a counting sort that expands each
// broadcast over the sender's CSR row and reads arrival ports from a
// reverse-port table built on the first such round. Both paths yield
// the same inboxes and Metrics, and both produce port order by
// construction, so no inbox is sorted after the fact. The tests check
// the engine against a reference simulator (reference_test.go) that
// implements the same semantics in the plainest way, for every
// algorithm in the repository, and fuzz it in both kinds of round.
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
	// against schedule bugs). Zero means DefaultMaxRounds.
	MaxRounds int64
	// Observer, if non-nil, receives one RoundStat per executed round:
	// the round's awake nodes and its traffic counters. It carries no
	// per-message detail, and the engine hands it the awake list it
	// already holds, so attaching it costs the engine O(1) per round:
	// the counter deltas and one monotonic clock read.
	// Observer methods are called from the engine goroutine only.
	Observer RoundObserver
	// Engine runs the program. Nil means the stepped engine with its
	// pool sized from GOMAXPROCS; tests set it to the reference
	// simulator.
	Engine Engine
}

// DefaultMaxRounds is the round cap of a Config whose MaxRounds is 0.
const DefaultMaxRounds = 1 << 40

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
		cfg.MaxRounds = DefaultMaxRounds
	}
	return cfg, nil
}

// RoundStat is one executed round: its awake nodes and its traffic
// counters, no per-message detail. The message counters are deltas for
// this round alone; summed over all observed rounds they equal the
// corresponding final Metrics totals exactly, and counting each node's
// rounds gives Metrics.AwakePerNode (both identities are frozen by
// test at every worker count and on the reference simulator).
type RoundStat struct {
	// Round is the round number (clock); rounds where every node sleeps
	// are skipped, so consecutive stats may jump.
	Round int64
	// Nodes lists the round's awake nodes in ascending order. The slice
	// is owned by the engine and valid only during ObserveRound; an
	// observer that keeps it must copy it.
	Nodes []int
	// Sent counts messages handed to Send this round.
	Sent int64
	// Delivered counts this round's messages that reached an awake
	// receiver (Sent - Delivered were lost to sleeping nodes).
	Delivered int64
	// Bits is the total wire size of this round's sends.
	Bits int64
	// Elapsed is the wall time from the end of the previous executed
	// round (the start of the round loop, for the first) to the end of
	// this one: the round itself plus the preceding ObserveRound call.
	// Summed over a run it is the round loop's wall time up to the last
	// round's end. It is the only nondeterministic field.
	Elapsed time.Duration
}

// RoundObserver receives per-round aggregates as the engine executes.
// ObserveRound fires once per executed round, in round order, after the
// round completed successfully (rounds aborted by an error or
// cancellation are not observed). Implementations should be cheap and
// ideally allocation-free: the hook itself adds no heap allocations and
// one monotonic clock read per round, and the engine's steady-state
// allocation guards budget at most one allocation per round for the
// observer's own bookkeeping.
type RoundObserver interface {
	ObserveRound(RoundStat)
}

// roundProbe converts the run's cumulative Metrics counters into
// per-round deltas for a RoundObserver. With a nil observer every call
// is a single predictable branch, preserving the zero-allocation round
// loop. An observed round reads the clock once, in end: each reading is
// the time since base, and a round's Elapsed is the gap to the previous
// reading.
type roundProbe struct {
	obs       RoundObserver
	base      time.Time     // the round loop's start
	last      time.Duration // the previous reading, relative to base
	sent      int64
	delivered int64
	bits      int64
}

// start takes the run's one wall-clock reading as the round loop
// begins.
func (p *roundProbe) start() {
	if p.obs == nil {
		return
	}
	p.base = time.Now()
}

// begin snapshots the cumulative counters at the top of a round.
func (p *roundProbe) begin(m *Metrics) {
	if p.obs == nil {
		return
	}
	p.sent, p.delivered, p.bits = m.MessagesSent, m.MessagesDelivered, m.BitsSent
}

// end emits the round's RoundStat once the round has fully completed.
func (p *roundProbe) end(m *Metrics, round int64, nodes []int) {
	if p.obs == nil {
		return
	}
	now := time.Since(p.base) // monotonic only: base carries a monotonic reading
	elapsed := now - p.last
	p.last = now
	p.obs.ObserveRound(RoundStat{
		Round:     round,
		Nodes:     nodes,
		Sent:      m.MessagesSent - p.sent,
		Delivered: m.MessagesDelivered - p.delivered,
		Bits:      m.BitsSent - p.bits,
		Elapsed:   elapsed,
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
func (m *Metrics) noteAwake(v int) {
	m.AwakePerNode[v]++
	m.TotalAwake++
	if m.AwakePerNode[v] > m.MaxAwake {
		m.MaxAwake = m.AwakePerNode[v]
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

// RunStepContext simulates prog on every node of g under cfg and
// returns the measured complexity metrics. It returns an error if any
// node program panicked, violated the CONGEST bound under Strict, or
// the run exceeded MaxRounds. The engine is cfg.Engine, or the stepped
// engine when that is nil. The engine polls ctx at every round boundary
// and aborts the simulation — returning an error that wraps ctx.Err() —
// once it is cancelled or past its deadline. A nil ctx means
// context.Background().
func RunStepContext(ctx context.Context, g *graph.Graph, prog StepProgram, cfg Config) (*Metrics, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	eng := cfg.Engine
	if eng == nil {
		eng = defaultEngine
	}
	return eng.Run(ctx, g, prog, cfg)
}

// wakeQueue schedules (round, node) wake-ups in O(n) space. Each
// pending round owns a bucket: a FIFO list of its nodes threaded
// through one link per node (a node waits in at most one bucket at a
// time), and a min-heap of (round, bucket) entries orders the distinct
// pending rounds, so pop reads its bucket off the root. add finds a
// round's bucket only when it targets a different round than the
// previous add: by scanning the heap while at most indexAbove rounds
// are pending, and through an index map, built from the heap, while
// more are. The map is dropped again once indexBelow or fewer rounds
// are pending, so a run that keeps few rounds pending touches no map.
// Either way the lookup is exact, so a round never owns two buckets.
// Apart from each build of the map, nothing allocates once the queue
// has seen its widest schedule. Each bucket records whether its nodes arrived in ascending
// order, so pop sorts only the buckets that did not; either way a round
// executes in ascending node order, as the determinism contract
// requires.
type wakeQueue struct {
	link    []int32         // next node in the same bucket
	buckets []wakeBucket    // bucket storage, indexed by bucket id
	free    []int32         // ids of buckets released by pop
	heap    []wakeRound     // min-heap of the distinct pending rounds
	index   map[int64]int32 // pending round -> bucket id; nil while few are pending
	popped  []int           // the nodes of the last pop

	// The previous add's round and bucket; lastBucket is -1 when no
	// bucket is cached (at start, and once the cached round is popped).
	lastRound  int64
	lastBucket int32
}

// The index map's hysteresis: add builds it when a new round makes
// more than indexAbove rounds pending, and pop drops it when at most
// indexBelow remain.
const (
	indexAbove = 32
	indexBelow = 16
)

// wakeRound is a heap entry: a pending round and its bucket.
type wakeRound struct {
	round int64
	id    int32
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
		id = q.bucket(r)
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

// bucket returns round r's bucket, opening one when r is not pending.
func (q *wakeQueue) bucket(r int64) int32 {
	if q.index != nil {
		if id, ok := q.index[r]; ok {
			return id
		}
	} else {
		for _, e := range q.heap {
			if e.round == r {
				return e.id
			}
		}
	}
	id := q.newBucket()
	q.pushRound(wakeRound{round: r, id: id})
	switch {
	case q.index != nil:
		q.index[r] = id
	case len(q.heap) > indexAbove:
		q.index = make(map[int64]int32, 2*len(q.heap))
		for _, e := range q.heap {
			q.index[e.round] = e.id
		}
	}
	return id
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
	top := q.popRound()
	if q.index != nil {
		delete(q.index, top.round)
		if len(q.heap) <= indexBelow {
			q.index = nil
		}
	}
	if top.id == q.lastBucket {
		q.lastBucket = -1
	}
	b := q.buckets[top.id]
	q.free = append(q.free, top.id)
	nodes := q.popped[:b.size]
	v := b.head
	for i := range nodes {
		nodes[i] = int(v)
		v = q.link[v]
	}
	if !b.sorted {
		slices.Sort(nodes)
	}
	return top.round, nodes
}

func (q *wakeQueue) pushRound(e wakeRound) {
	q.heap = append(q.heap, e)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].round <= h[i].round {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (q *wakeQueue) popRound() wakeRound {
	h := q.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	q.heap = h[:last]
	h = q.heap
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].round < h[small].round {
			small = l
		}
		if rr < len(h) && h[rr].round < h[small].round {
			small = rr
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}
