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
// State is struct-of-arrays: the per-node machine, staged outbox,
// routing slot, and next-wake round each live in their own flat array,
// so the hot loops (routing, stepping, rescheduling) touch only the
// arrays they need. Routing costs O(1) per delivered message: arrival
// ports come from a reverse-port table built once per run, and a
// broadcast travels as one staged entry that the router expands over
// the sender's own CSR row. Scheduling costs O(1) per woken node (see
// wakeQueue). At steady state the engine performs zero heap
// allocations per round: every inbox is a region of one flat buffer,
// outboxes reset in place, and the worker pool is fed over a channel
// of index spans (guarded by the testing.AllocsPerRun tests in
// alloc_test.go).
type steppedEngine struct {
	workers int // fixed pool size; 0 follows GOMAXPROCS (poolSize)
}

// NewSteppedEngine returns the inline-state engine with the given
// worker-pool size. Zero, the Default, sizes the pool from
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

// Name implements Engine.
func (e *steppedEngine) Name() string { return "stepped" }

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

// rxSlot is one node's routing state. route counts the node's
// deliveries, gives it a region of the round's flat inbox buffer with
// a prefix sum over the awake list, and fills the region, advancing
// off to the region's end: the inbox is inBuf[off-count:off]. The
// fields share one 16 B slot, not one array each, because route
// reaches a receiver in random order and then touches all of them.
type rxSlot struct {
	stamp int64 // clock+1 iff the node is awake this round
	count int32 // deliveries this round
	off   int32 // region start, then fill cursor, then region end
}

// stepState is one run's struct-of-arrays node state plus the
// round-scoped scratch the worker pool reads.
type stepState struct {
	g   *graph.Graph
	cfg Config
	m   *Metrics
	q   *wakeQueue

	node []StepNode // per-node machine; nil once halted
	out  []Outbox   // sends staged for each node's next awake round
	next []int64    // wake round returned by the last OnWake (haltedWake once done)
	rx   []rxSlot   // per-node routing state for the current round
	rev  []int32    // the graph's reverse-port table (graph.ReversePorts)

	// Flat inbox buffer; rxSlot locates each awake node's region.
	// Inboxes are borrowed for the OnWake call only, so each round
	// refills the buffer.
	inBuf []Inbound

	probe roundProbe // per-round deltas for cfg.Observer (no-op when nil)

	// Round scope, published to workers before shards are dispatched.
	awake []int
	clock int64

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

	for !rs.q.empty() {
		// Honor cancellation at every round boundary: the nodes' inline
		// state is simply dropped, so an abort needs no unwinding.
		if err := ctx.Err(); err != nil {
			return rs.m, fmt.Errorf("sim: aborted after round %d: %w", rs.m.Rounds, err)
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
		rx:    make([]rxSlot, n),
		rev:   g.ReversePorts(),
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
		rs.m.noteAwake(v, clock, rs.cfg.Tracer)
	}

	// Transmit the sends staged for this round (decided at each node's
	// previous awake round) between mutually awake nodes. The inboxes
	// filled here are regions of the flat buffer; OnWake drains them.
	rs.clock = clock
	if err := rs.route(awake); err != nil {
		return err
	}

	// Fan the step calls across the worker pool in contiguous
	// node-index shards.
	rs.stepAll(awake, workers)

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
	rs.probe.end(rs.m, clock, len(awake))
	return nil
}

// route delivers the round's staged sends between mutually awake nodes
// and meters the traffic. Senders are processed in ascending node order
// (awake is sorted), so each receiver's arrival ports ascend within the
// round and inboxes come out port-sorted.
//
// Delivery is a counting sort into the flat inbox buffer: pass one
// meters and traces every send in sender order, counts each
// receiver's deliveries, and records a unicast send's receiver in the
// staged entry (-1 when it sleeps); a prefix sum over the awake list
// carves the buffer into per-receiver regions; pass two fills the
// regions in the same sender order, skipping lost sends. A broadcast
// entry is expanded over the sender's CSR row in port order, in both
// passes: pass one meters each port as its own send, and pass two
// reads each receiver's stamp from the slot it fills anyway. Arrival
// ports are read from the reverse-port table at the arc's index, so
// each delivered message costs O(1). The buffer grows at most once per
// round, exactly to the delivered total.
func (rs *stepState) route(awake []int) error {
	g, m, tracer, clock := rs.g, rs.m, rs.cfg.Tracer, rs.clock
	rx, rev := rs.rx, rs.rev
	stamp := clock + 1
	for _, v := range awake {
		rx[v] = rxSlot{stamp: stamp}
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
					r := &rx[w]
					delivered := r.stamp == stamp
					if tracer != nil {
						tracer.Message(clock, v, int(w), bits, delivered)
					}
					if delivered { // a sleeping receiver loses the message
						r.count++
						m.MessagesDelivered++
					}
				}
				continue
			}
			m.MessagesSent++
			m.BitsSent += int64(bits)
			w := g.Neighbor(v, int(om.port))
			delivered := rx[w].stamp == stamp
			if tracer != nil {
				tracer.Message(clock, v, w, bits, delivered)
			}
			om.to = -1
			if delivered {
				om.to = int32(w)
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
	if total > math.MaxInt32 {
		return fmt.Errorf("sim: round %d delivers %d messages, beyond the inbox offset range", clock, total)
	}
	buf := rs.inBuf
	if cap(buf) < total {
		buf = make([]Inbound, total)
	}
	buf = buf[:total]
	rs.inBuf = buf
	for _, v := range awake {
		out := &rs.out[v]
		arc := int(out.arc)
		for _, om := range out.msgs {
			if om.port == broadcastPort {
				row := g.Neighbors(v)
				ports := rev[arc : arc+len(row)]
				for p, w := range row {
					r := &rx[w]
					if r.stamp != stamp {
						continue
					}
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

// stepAll runs OnWake for every awake node, splitting the (sorted)
// awake list into at most workers contiguous shards. Shard boundaries
// affect scheduling only, never results: a step touches nothing but its
// own node's state.
func (rs *stepState) stepAll(awake []int, workers int) {
	const minParallel = 128
	if rs.jobs == nil || len(awake) < minParallel {
		rs.stepRange(awake)
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

// worker drains awake-list spans for the run's lifetime; the channel
// send/receive pair orders each round's published state before the
// shard that reads it.
func (rs *stepState) worker() {
	for span := range rs.jobs {
		rs.stepRange(rs.awake[span[0]:span[1]])
		rs.wg.Done()
	}
}

func (rs *stepState) stepRange(awake []int) {
	for _, v := range awake {
		rs.stepNode(v)
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

func (rs *stepState) stepNode(v int) {
	defer func() {
		if r := recover(); r != nil {
			rs.fail(v, panicError(r))
		}
	}()
	// The region's capacity is clamped so a program appending to its
	// inbox cannot clobber the next receiver's region.
	r := rs.rx[v]
	in := rs.inBuf[r.off-r.count : r.off : r.off]
	sortInbox(in)
	out := &rs.out[v]
	out.reset()
	next, done := rs.node[v].OnWake(rs.clock, in, out)
	if done {
		rs.node[v] = nil // release the machine; staged sends are dropped
		rs.next[v] = haltedWake
		return
	}
	rs.next[v] = next
}

func (rs *stepState) startNode(v int, sp StepProgram, env *NodeEnv) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(r)
		}
	}()
	rs.node[v] = sp(env)
	rs.node[v].Start(&rs.out[v])
	return nil
}
