package sim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"awakemis/internal/graph"
)

// steppedEngine keeps all node state inline and drives awake nodes from
// a wake-time bucket queue: no per-node goroutines, no channel
// handshakes on the hot path. Each round's OnWake calls are fanned
// across a persistent worker pool in deterministic contiguous
// node-index shards; because a step depends only on the node's own
// state, inbox, and private RNG stream, results are bit-identical at
// every worker count.
//
// State is struct-of-arrays: the per-node machine, staged outbox and
// next-wake round each live in their own flat array, so the hot loops
// (routing, stepping, rescheduling) touch only the arrays they need.
// Routing costs O(1) per delivered message, on one of two paths (see
// route): in a round of broadcasts only, the engine goroutine publishes
// each broadcast and each stepping node then gathers its own inbox off
// its CSR row, on the worker pool; any other round is delivered by a
// counting sort that reads arrival ports from a reverse-port table
// built on its first use. Scheduling costs O(1) per woken node (see
// wakeQueue). At steady state the engine performs zero heap
// allocations per round: a gathered inbox fills its goroutine's
// scratch buffer, a sorted one is a region of one flat buffer,
// outboxes reset in place, and the worker pool is fed over a channel
// of index spans (guarded by the testing.AllocsPerRun tests in
// alloc_test.go).
type steppedEngine struct {
	workers int // fixed pool size; 0 follows GOMAXPROCS (poolSize)
}

// NewSteppedEngine returns the inline-state engine with the given
// worker-pool size. Zero, the default, sizes the pool from
// runtime.GOMAXPROCS(0) at the start of each run.
func NewSteppedEngine(workers int) Engine {
	return &steppedEngine{workers: max(workers, 0)}
}

// poolSize is the worker count for the next run.
func (e *steppedEngine) poolSize() int {
	if e.workers > 0 {
		return e.workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run implements Engine.
func (e *steppedEngine) Run(ctx context.Context, g *graph.Graph, prog StepProgram, cfg Config) (*Metrics, error) {
	cfg, err := cfg.withDefaults(g.N())
	if err != nil {
		return nil, err
	}
	return e.run(ctx, g, prog, cfg)
}

// haltedWake marks a node that returned done from its last OnWake.
const haltedWake = math.MinInt64

// panicError converts a value recovered from a program panic into an
// error, wrapping it when it is one.
func panicError(r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("program panic: %w", err)
	}
	return fmt.Errorf("program panic: %v", r)
}

// rxSlot locates an awake node's inbox in a counting-sort round,
// inBuf[off-count:off], a region of the round's flat inbox buffer. The
// counting sort counts the node's deliveries, turns off into the
// region's start with a prefix sum over the awake list, and advances
// it while filling the region. The fields share one 8 B slot, not one
// array each, because the counting sort reaches a receiver in random
// order and then touches both.
type rxSlot struct {
	count int32 // deliveries this round
	off   int32 // region start, then fill cursor, then region end
}

// nodeBits holds two bits per node: whether it is awake this round and
// whether it broadcasts in it. Each word of awake bits sits next to
// the word of broadcaster bits for the same 64 nodes, so a node's two
// bits share a cache line.
type nodeBits []uint64

func newNodeBits(n int) nodeBits { return make(nodeBits, 2*((n+63)/64)) }

func (b nodeBits) setAwake(v int) { b[v>>6<<1] |= 1 << (uint(v) & 63) }

func (b nodeBits) setSender(v int) { b[v>>6<<1|1] |= 1 << (uint(v) & 63) }

// awake returns node v's awake bit as 0 or 1.
func (b nodeBits) awake(v int32) int { return int(b[v>>6<<1] >> (uint32(v) & 63) & 1) }

func (b nodeBits) isAwake(v int32) bool { return b.awake(v) != 0 }

func (b nodeBits) isSender(v int32) bool { return b[v>>6<<1|1]>>(uint32(v)&63)&1 != 0 }

// clear zeroes both words that hold node v's bits.
func (b nodeBits) clear(v int) {
	i := v >> 6 << 1
	b[i], b[i+1] = 0, 0
}

// inboxSource says where a round's stepping nodes find their inboxes.
type inboxSource uint8

const (
	inboxEmpty  inboxSource = iota // nothing was delivered
	inboxGather                    // each node gathers off its CSR row (broadcast-only round)
	inboxRegion                    // the counting sort filled inBuf, located by rx
)

// stepState is one run's struct-of-arrays node state plus the
// round-scoped state the worker pool reads.
type stepState struct {
	g   *graph.Graph
	cfg Config
	m   *Metrics
	q   *wakeQueue

	node []StepNode // per-node machine; nil once halted
	out  []Outbox   // sends staged for each node's next awake round
	next []int64    // wake round returned by the last OnWake (haltedWake once done)

	// mixed[v] reports that the sends v staged for its next awake round
	// are not at most one Broadcast. The node's start and steps set it
	// while its outbox is at hand, so route picks a round's path
	// without reading the outboxes.
	mixed []bool

	// The round's awake nodes and, in a broadcast-only round, the nodes
	// that broadcast, with each broadcaster's message in view. The
	// stepping nodes read them to gather their inboxes, so round clears
	// the marks after stepAll; view keeps stale entries, which are read
	// only under a set broadcaster bit.
	marks nodeBits
	view  []Message

	// The counting sort's state, all allocated on the first round it
	// routes, so a run of broadcast-only rounds allocates none of it:
	// the graph's reverse-port table (graph.ReversePorts), each awake
	// node's inbox slot, and the flat inbox buffer the slots locate.
	// Inboxes are borrowed for the OnWake call only, so each round
	// refills the buffer.
	rev   []int32
	rx    []rxSlot
	inBuf []Inbound

	// The engine goroutine's gather buffer, for rounds it steps inline;
	// each worker holds its own. A gather buffer grows to the largest
	// degree its goroutine has gathered for.
	scratch []Inbound

	probe roundProbe // per-round deltas for cfg.Observer (no-op when nil)

	// Round scope, published to workers before shards are dispatched.
	awake  []int
	clock  int64
	source inboxSource

	// Worker pool: spans of the awake slice flow over jobs; a nil
	// channel means single-worker (shards run inline).
	jobs chan [2]int
	wg   sync.WaitGroup

	// Lowest-node failure of the current round, aggregated across shards.
	failMu   sync.Mutex
	failNode int
	failErr  error
}

func (e *steppedEngine) run(ctx context.Context, g *graph.Graph, sp StepProgram, cfg Config) (*Metrics, error) {
	workers := e.poolSize()
	rs, err := newStepState(g, sp, cfg, workers)
	if err != nil {
		return rs.m, err
	}
	defer rs.close()

	// Honor cancellation at every round boundary: the nodes' inline
	// state is simply dropped, so an abort needs no unwinding. A
	// non-blocking receive on Done takes no lock, unlike ctx.Err.
	done := ctx.Done()
	rs.probe.start()
	for !rs.q.empty() {
		select {
		case <-done:
			return rs.m, fmt.Errorf("sim: aborted after round %d: %w", rs.m.Rounds, ctx.Err())
		default:
		}
		if err := rs.round(workers); err != nil {
			return rs.m, err
		}
	}
	return rs.m, nil
}

// newStepState builds a run's node state, stages every node's round-0
// sends, and spawns the worker pool. The returned state is driven by
// calling round until the queue empties, then released with close. It
// is split from run so tests can drive single rounds (the allocation
// guards measure round in isolation after a warm-up).
func newStepState(g *graph.Graph, sp StepProgram, cfg Config, workers int) (*stepState, error) {
	n := g.N()
	rs := &stepState{
		g:     g,
		cfg:   cfg,
		m:     &Metrics{AwakePerNode: make([]int64, n)},
		q:     newWakeQueue(n),
		node:  make([]StepNode, n),
		out:   make([]Outbox, n),
		next:  make([]int64, n),
		mixed: make([]bool, n),
		marks: newNodeBits(n),
		view:  make([]Message, n),
		probe: roundProbe{obs: cfg.Observer},
	}

	// Construct every node machine and stage its round-0 sends. The
	// environments, RNG streams and each outbox's first entry are
	// slab-allocated: three arrays for the whole run instead of three
	// heap objects per node.
	envs := make([]NodeEnv, n)
	rnds := make([]Rand, n)
	slots := make([]outMsg, n)
	arc := 0
	for v := 0; v < n; v++ {
		deg := g.Degree(v)
		out := &rs.out[v]
		out.configure(v, deg, &rs.cfg)
		out.arc = int32(arc)
		out.msgs = slots[v : v : v+1]
		arc += deg
		rnds[v] = nodeRand(cfg.Seed, v)
		envs[v] = NodeEnv{
			ID:        v,
			Degree:    deg,
			N:         cfg.N,
			Bandwidth: cfg.Bandwidth,
			Rand:      &rnds[v],
		}
		if err := rs.startNode(v, sp, &envs[v]); err != nil {
			return rs, fmt.Errorf("sim: node %d: %w", v, err)
		}
		rs.q.add(0, v) // all nodes start awake in round 0
	}

	if workers > 1 {
		rs.jobs = make(chan [2]int, workers)
		for i := 0; i < workers; i++ {
			go rs.worker()
		}
	}
	return rs, nil
}

// close releases the worker pool.
func (rs *stepState) close() {
	if rs.jobs != nil {
		close(rs.jobs)
	}
}

// round executes one scheduled round: pop the awake set, route the
// staged sends, fan the OnWake calls across the pool, and reschedule.
// It is the engine's entire per-round path, factored out so the
// allocation-regression tests can drive it directly.
func (rs *stepState) round(workers int) error {
	clock, awake := rs.q.pop()
	if clock > rs.cfg.MaxRounds {
		return fmt.Errorf("%w (round %d)", ErrMaxRounds, clock)
	}
	rs.probe.begin(rs.m)
	rs.m.ExecutedRounds++
	if clock+1 > rs.m.Rounds {
		rs.m.Rounds = clock + 1
	}
	for _, v := range awake {
		rs.m.noteAwake(v)
	}

	// Transmit the sends staged for this round (decided at each node's
	// previous awake round) between mutually awake nodes, and fan the
	// step calls across the worker pool in contiguous node-index
	// shards. Each OnWake drains an inbox that its node gathers or that
	// the counting sort filled (see route).
	rs.clock = clock
	if err := rs.route(awake); err != nil {
		return err
	}
	rs.stepAll(awake, workers)
	// Every broadcaster is awake, so clearing the awake nodes' words
	// clears every mark.
	for _, v := range awake {
		rs.marks.clear(v)
	}

	// Surface the lowest-indexed failure deterministically.
	if err := rs.failErr; err != nil {
		return fmt.Errorf("sim: node %d: %w", rs.failNode, err)
	}

	// Reschedule.
	for _, v := range awake {
		next := rs.next[v]
		if next == haltedWake {
			continue
		}
		if next <= clock {
			return fmt.Errorf("sim: node %d scheduled wake %d not after round %d", v, next, clock)
		}
		rs.q.add(next, v)
	}
	rs.probe.end(rs.m, clock, awake)
	return nil
}

// route transmits the round's staged sends between mutually awake
// nodes and meters the traffic. It picks one of two paths from what
// the awake nodes staged, never from the program: a round in which
// every awake node staged at most one entry, a Broadcast, is published
// for the receivers to gather (publishBroadcasts), and a round in which
// any awake node staged a unicast Send or more than one entry is
// delivered by a counting sort (countingSort). Both paths meter every
// send on the engine goroutine, a broadcast as one send per port, and
// both give every awake node its inbox sorted by arrival port, so the
// path a round takes never shows in a run's results. route sets the
// round's inbox source, which stepNode reads.
func (rs *stepState) route(awake []int) error {
	broadcastOnly := true
	for _, v := range awake {
		rs.marks.setAwake(v)
		if rs.mixed[v] {
			broadcastOnly = false
		}
	}
	if broadcastOnly {
		rs.source = rs.publishBroadcasts(awake)
		return nil
	}
	rs.source = inboxRegion
	return rs.countingSort(awake)
}

// publishBroadcasts is the engine goroutine's half of a broadcast-only
// round. It meters each broadcast as one send per port, counts the
// awake neighbours it reaches from their awake bits, and publishes the
// message in the sender's view slot and broadcaster bit. Each stepping
// node then gathers its own inbox off its sorted CSR row (see gather),
// on the worker pool when the round shards. It returns the round's
// inbox source: inboxEmpty when the round delivers nothing, so that no
// node scans its row.
func (rs *stepState) publishBroadcasts(awake []int) inboxSource {
	g, m := rs.g, rs.m
	marks, view := rs.marks, rs.view
	total := 0
	for _, v := range awake {
		msgs := rs.out[v].msgs
		if len(msgs) == 0 {
			continue
		}
		msg := msgs[0].msg
		bits := msg.Bits()
		if bits > m.MaxMessageBits {
			m.MaxMessageBits = bits
		}
		row := g.Neighbors(v)
		m.MessagesSent += int64(len(row))
		m.BitsSent += int64(bits) * int64(len(row))
		for _, w := range row {
			total += marks.awake(w)
		}
		view[v] = msg
		marks.setSender(v)
	}
	m.MessagesDelivered += int64(total)
	if total == 0 {
		return inboxEmpty
	}
	return inboxGather
}

// countingSort routes a round that holds a unicast send, or more than
// one entry from one node, through the flat inbox buffer. Pass one
// meters every send in sender order, counts each awake receiver's
// deliveries, and records a unicast send's receiver in the staged
// entry (-1 when it sleeps); a prefix sum over the awake list carves
// the buffer into per-receiver regions; pass two fills the regions in
// the same sender order, skipping lost sends. A broadcast
// entry is expanded over the sender's CSR row in port order in both
// passes, each port metered as its own send. Because senders ascend,
// each receiver's arrival ports ascend within the round. Arrival ports
// are read from the reverse-port table at the arc's index, so each
// delivered message costs O(1); the table and the inbox slots are
// allocated on the first round that needs them.
func (rs *stepState) countingSort(awake []int) error {
	g, m := rs.g, rs.m
	if rs.rev == nil {
		rs.rev = g.ReversePorts()
		rs.rx = make([]rxSlot, g.N())
	}
	marks, rx, rev := rs.marks, rs.rx, rs.rev
	for _, v := range awake {
		rx[v] = rxSlot{}
	}
	for _, v := range awake {
		msgs := rs.out[v].msgs
		for i := range msgs {
			om := &msgs[i]
			bits := om.msg.Bits()
			if bits > m.MaxMessageBits {
				m.MaxMessageBits = bits
			}
			if om.port == broadcastPort {
				row := g.Neighbors(v)
				m.MessagesSent += int64(len(row))
				m.BitsSent += int64(bits) * int64(len(row))
				for _, w := range row {
					if marks.isAwake(w) { // a sleeping receiver loses the message
						rx[w].count++
						m.MessagesDelivered++
					}
				}
				continue
			}
			m.MessagesSent++
			m.BitsSent += int64(bits)
			w := int32(g.Neighbor(v, int(om.port)))
			om.to = -1
			if marks.isAwake(w) {
				om.to = w
				rx[w].count++
				m.MessagesDelivered++
			}
		}
	}
	total := 0
	for _, v := range awake {
		rx[v].off = int32(total)
		total += int(rx[v].count)
	}
	buf, err := rs.inbox(total)
	if err != nil {
		return err
	}
	for _, v := range awake {
		out := &rs.out[v]
		arc := int(out.arc)
		for _, om := range out.msgs {
			if om.port == broadcastPort {
				row := g.Neighbors(v)
				ports := rev[arc : arc+len(row)]
				for p, w := range row {
					if !marks.isAwake(w) {
						continue
					}
					r := &rx[w]
					buf[r.off] = Inbound{Port: int(ports[p]), Msg: om.msg}
					r.off++
				}
				continue
			}
			if om.to < 0 {
				continue
			}
			r := &rx[om.to]
			buf[r.off] = Inbound{Port: int(rev[arc+int(om.port)]), Msg: om.msg}
			r.off++
		}
	}
	return nil
}

// inbox returns the round's flat inbox buffer, total entries long,
// growing it only when its capacity falls short.
func (rs *stepState) inbox(total int) ([]Inbound, error) {
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("sim: round %d delivers %d messages, beyond the inbox offset range", rs.clock, total)
	}
	if cap(rs.inBuf) < total {
		rs.inBuf = make([]Inbound, total)
	}
	rs.inBuf = rs.inBuf[:total]
	return rs.inBuf, nil
}

// stepAll runs OnWake for every awake node, splitting the (sorted)
// awake list into at most workers contiguous shards. Shard boundaries
// affect scheduling only, never results: a step writes nothing but its
// own node's state and its goroutine's gather buffer.
func (rs *stepState) stepAll(awake []int, workers int) {
	const minParallel = 128
	if rs.jobs == nil || len(awake) < minParallel {
		rs.stepRange(awake, &rs.scratch)
		return
	}
	rs.awake = awake
	chunk := (len(awake) + workers - 1) / workers
	for lo := 0; lo < len(awake); lo += chunk {
		hi := lo + chunk
		if hi > len(awake) {
			hi = len(awake)
		}
		rs.wg.Add(1)
		rs.jobs <- [2]int{lo, hi}
	}
	rs.wg.Wait()
}

// worker drains awake-list spans for the run's lifetime, gathering
// inboxes into a buffer of its own; the channel send/receive pair
// orders each round's published state before the shard that reads it.
func (rs *stepState) worker() {
	var scratch []Inbound
	for span := range rs.jobs {
		rs.stepRange(rs.awake[span[0]:span[1]], &scratch)
		rs.wg.Done()
	}
}

// stepRange steps the given nodes in order on one goroutine, whose
// gather buffer is scratch.
func (rs *stepState) stepRange(awake []int, scratch *[]Inbound) {
	for _, v := range awake {
		rs.stepNode(v, scratch)
	}
}

// fail records a node failure, keeping the lowest node index so the
// surfaced error is deterministic at every worker count.
func (rs *stepState) fail(v int, err error) {
	rs.failMu.Lock()
	if rs.failErr == nil || v < rs.failNode {
		rs.failNode, rs.failErr = v, err
	}
	rs.failMu.Unlock()
}

func (rs *stepState) stepNode(v int, scratch *[]Inbound) {
	defer func() {
		if r := recover(); r != nil {
			rs.fail(v, panicError(r))
		}
	}()
	// Each inbox's capacity is clamped to its length, so a program
	// appending to its inbox reallocates instead of clobbering the
	// next node's inbox.
	var in []Inbound
	switch rs.source {
	case inboxGather:
		in = rs.gather(v, scratch)
	case inboxRegion:
		r := rs.rx[v]
		in = rs.inBuf[r.off-r.count : r.off : r.off]
	}
	out := &rs.out[v]
	out.reset()
	next, done := rs.node[v].OnWake(rs.clock, in, out)
	if done {
		rs.node[v] = nil // release the machine; staged sends are dropped
		rs.next[v] = haltedWake
		return
	}
	rs.next[v] = next
	rs.mixed[v] = out.mixed()
}

// gather returns node v's inbox in a broadcast-only round: the messages
// its broadcasting neighbours published, read off its own sorted CSR
// row, so the inbox comes out in port order. It fills the calling
// goroutine's buffer, growing it to v's degree when it is shorter.
func (rs *stepState) gather(v int, scratch *[]Inbound) []Inbound {
	row := rs.g.Neighbors(v)
	buf := *scratch
	if len(buf) < len(row) {
		buf = make([]Inbound, len(row))
		*scratch = buf
	}
	marks, view := rs.marks, rs.view
	k := 0
	for p, u := range row {
		if marks.isSender(u) {
			buf[k] = Inbound{Port: p, Msg: view[u]}
			k++
		}
	}
	return buf[:k:k]
}

func (rs *stepState) startNode(v int, sp StepProgram, env *NodeEnv) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(r)
		}
	}()
	rs.node[v] = sp(env)
	rs.node[v].Start(&rs.out[v])
	rs.mixed[v] = rs.out[v].mixed()
	return nil
}
