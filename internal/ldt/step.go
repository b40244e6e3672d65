package ldt

// This file is the LDT session: SProc runs the tree primitives on a
// sim.Machine, yielding at each wake point instead of blocking, so the
// whole session runs natively on the stepped engine's inline hot path.
//
// The session runs from one frame. The in-flight primitive keeps its
// parameters and results in SProc's fields, and every Yield passes the
// same send and receive methods, bound once in Init, so a wake costs no
// allocation beyond the payloads of the messages it actually sends.
//
// Each wake is one Machine.Yield whose send stages the messages the
// node transmits in that round (the node is asleep in between, so the
// staged state is its state at the end of its previous awake round);
// code between two wakes runs inside the earlier wake's receive; a
// primitive that skips a conditional wake completes without yielding.
//
// Primitives and procedures report whether they yielded. One that did
// not has completed, and its caller continues inline. One that did
// completes inside a later receive, where the session resumes: the
// in-flight procedure advances to its next primitive, and a finished
// procedure runs the owner's continuation.

import "awakemis/internal/sim"

// primOp names the primitive whose wake the session is waiting on.
type primOp uint8

const (
	opHello primOp = iota + 1
	opAdjacent
	opTargeted
	opUpcast
	opDowncast
	opUpRelabel
	opDownRelabel
	opChunk
)

// procKind names the procedure that resumes when a primitive completes.
type procKind uint8

const (
	procNone   procKind = iota // a bare primitive (Hello): completion runs k
	procAwake                  // ConstructAwake
	procRound                  // ConstructRound (closure-driven, see roundK)
	procRank                   // Rank
	procChunks                 // BroadcastChunks
)

// SProc is a node's participation in one LDT session over a connected
// participant set of at most np nodes. All participants must start
// their session with the same base round and np; the window cursor
// then advances identically everywhere, which is what synchronizes the
// schedule without communication.
type SProc struct {
	treeState
	m   *sim.Machine
	rnd *sim.Rand
	cur int64 // next unallocated sim round

	// k is the owner's continuation, run when a procedure that yielded
	// completes. sendFn and recvFn are p.send and p.recv, bound once.
	k      func()
	sendFn func(*sim.Outbox)
	recvFn func([]sim.Inbound)

	// The in-flight primitive: which wake it waits on, its window start,
	// and its parameters.
	op    primOp
	stage uint8 // 0: the primitive's first wake, 1: its second
	w     int64
	kind  uint8                                       // adjacent: message kind
	port  int                                         // targeted: destination port
	out   []int64                                     // adjacent, targeted: payload (nil sends nothing)
	merge func(acc, in []int64) []int64               // upcast: fold of child values
	split func(p *SProc, mine []int64, i int) []int64 // downcast: value for children[i]; nil forwards mine

	// Primitive results.
	in        []sim.Inbound // adjacent: the inbox filtered to kind (borrowed: valid only in the resuming receive)
	got       []int         // targeted: ports a payload arrived on
	acc       []int64       // upcast: the accumulated value
	childVals [][]int64     // upcast: each child's value, aligned with children
	mine      []int64       // downcast: the node's value
	pend      pending       // relabels: the pending relabel, when hasPend
	hasPend   bool

	// The in-flight procedure and its program counter and loop.
	proc        procKind
	pc          uint8
	iter, iters int

	// ConstructAwake's phase state.
	nbrRoot            []int64 // aligned with active, see nbrRoots
	chosenLo, chosenHi int64
	coin               int64
	oldParent          int

	// roundK continues ConstructRound once its in-flight primitive
	// completes (ConstructRound, which no hot path runs, stays in
	// closure-passing form).
	roundK func()

	// Rank's state and results.
	subtree, first int64    // own subtree size; first child's subtree size
	seed           [2]int64 // the root's own value and downcast seed (never sent)
	rank, total    int

	// BroadcastChunks' state and result.
	payload                []byte
	payloadBits, chunkBits int
	chunk                  sim.Message // this window's chunkMsg, nil if none arrived
	bits                   bitAccum
}

// Init prepares an LDT session starting at sim round base.
// The caller must be at the end of an awake round strictly before base
// (i.e. inside a Machine continuation). rnd is the node's private
// randomness stream (sim.NodeEnv.Rand). k runs each time a procedure
// that yielded completes; bind it once per session.
func (p *SProc) Init(m *sim.Machine, rnd *sim.Rand, base int64, id int64, np int, k func()) {
	*p = SProc{treeState: newTreeState(id, np), m: m, rnd: rnd, cur: base, k: k}
	p.sendFn = p.send
	p.recvFn = p.recv
}

// Cursor returns the first sim round not consumed by the session so far.
func (p *SProc) Cursor() int64 { return p.cur }

// Ranked returns the rank and tree size the last Rank computed.
func (p *SProc) Ranked() (rank, total int) { return p.rank, p.total }

// Data returns the payload the last BroadcastChunks reassembled.
func (p *SProc) Data() []byte { return p.bits.out }

// yield parks the session until round r, waiting on stage of op; send
// says whether op stages messages for r.
func (p *SProc) yield(r int64, op primOp, stage uint8, send bool) bool {
	p.op, p.stage = op, stage
	if send {
		p.m.Yield(r, p.sendFn, p.recvFn)
	} else {
		p.m.Yield(r, nil, p.recvFn)
	}
	return true
}

// send stages the in-flight primitive's messages. A message sent on
// several ports is boxed once.
func (p *SProc) send(out *sim.Outbox) {
	switch p.op {
	case opHello:
		out.Broadcast(opMsg{Kind: kHello, F: []int64{p.id}})
	case opAdjacent:
		msg := sim.Message(opMsg{Kind: p.kind, F: p.out})
		for _, q := range p.active {
			out.Send(q, msg)
		}
	case opTargeted:
		out.Send(p.port, opMsg{Kind: kRoot, F: p.out})
	case opUpcast:
		out.Send(p.parentPort, opMsg{Kind: kUp, F: p.acc})
	case opDowncast:
		if p.split == nil {
			msg := sim.Message(opMsg{Kind: kDown, F: p.mine})
			for _, q := range p.children {
				out.Send(q, msg)
			}
			return
		}
		for i, q := range p.children {
			if v := p.split(p, p.mine, i); v != nil {
				out.Send(q, opMsg{Kind: kDown, F: v})
			}
		}
	case opUpRelabel:
		out.Send(p.parentPort, opMsg{Kind: kRelabel, F: []int64{p.pend.rootID, int64(p.pend.depth)}})
	case opDownRelabel:
		msg := sim.Message(opMsg{Kind: kRelabel, F: []int64{p.pend.rootID, int64(p.pend.depth)}})
		for _, q := range p.children {
			out.Send(q, msg)
		}
	case opChunk:
		for _, q := range p.children {
			out.Send(q, p.chunk)
		}
	}
}

// recv handles the in-flight primitive's wake and, once the primitive
// has completed, resumes the session.
func (p *SProc) recv(in []sim.Inbound) {
	if p.wake(in) {
		return
	}
	p.resume()
}

// wake consumes the round's inbox for the in-flight primitive and
// reports whether the primitive yielded again (for its second wake).
func (p *SProc) wake(in []sim.Inbound) bool {
	switch p.op {
	case opHello:
		for _, m := range in {
			if om, ok := m.Msg.(opMsg); ok && om.Kind == kHello {
				p.active = append(p.active, m.Port)
				p.nbrID = append(p.nbrID, om.F[0])
			}
		}
	case opAdjacent:
		filtered := in[:0]
		for _, m := range in {
			if om, ok := m.Msg.(opMsg); ok && om.Kind == p.kind {
				filtered = append(filtered, m)
			}
		}
		p.in = filtered
	case opTargeted:
		p.got = p.got[:0]
		for _, m := range in {
			if om, ok := m.Msg.(opMsg); ok && om.Kind == kRoot {
				p.got = append(p.got, m.Port)
			}
		}
	case opUpcast:
		if p.stage == 0 {
			p.childVals = p.childVals[:0]
			for range p.children {
				p.childVals = append(p.childVals, nil)
			}
			for _, m := range in {
				om, ok := m.Msg.(opMsg)
				if !ok || om.Kind != kUp {
					continue
				}
				if i := portIndex(p.children, m.Port); i >= 0 {
					p.childVals[i] = om.F
				}
				p.acc = p.merge(p.acc, om.F)
			}
			return p.upcastSend()
		}
	case opDowncast:
		if p.stage == 0 {
			for _, m := range in {
				if om, ok := m.Msg.(opMsg); ok && om.Kind == kDown && m.Port == p.parentPort {
					p.mine = om.F
				}
			}
			return p.downcastSend()
		}
	case opUpRelabel:
		if p.stage == 0 {
			for _, m := range in {
				om, ok := m.Msg.(opMsg)
				if !ok || om.Kind != kRelabel || p.hasPend {
					continue
				}
				p.setPend(om.F, m.Port, m.Port)
			}
			return p.upRelabelSend()
		}
	case opDownRelabel:
		if p.stage == 0 {
			for _, m := range in {
				om, ok := m.Msg.(opMsg)
				if !ok || om.Kind != kRelabel || m.Port != p.parentPort {
					continue
				}
				if !p.hasPend {
					p.setPend(om.F, p.parentPort, -1)
				}
			}
			return p.downRelabelSend()
		}
	case opChunk:
		if p.stage == 0 {
			for _, m := range in {
				if _, ok := m.Msg.(chunkMsg); ok && m.Port == p.parentPort {
					p.chunk = m.Msg
				}
			}
			return p.chunkForward()
		}
		p.chunkDone()
	}
	return false
}

// resume advances the in-flight procedure after a primitive that
// yielded has completed, and runs k once the procedure is done.
func (p *SProc) resume() {
	var yielded bool
	switch p.proc {
	case procAwake:
		yielded = p.runAwake()
	case procRound:
		k := p.roundK
		p.roundK = nil
		k() // ConstructRound runs k itself when its last phase ends
		return
	case procRank:
		yielded = p.runRank()
	case procChunks:
		yielded = p.runChunks()
	}
	if !yielded {
		p.proc = procNone
		p.k()
	}
}

// setPend records a relabel to (F[0], F[1]+1) arriving through parent.
func (p *SProc) setPend(f []int64, parent, viaChild int) {
	p.pend = pending{rootID: f[0], depth: int(f[1]) + 1, parent: parent, viaChild: viaChild}
	p.hasPend = true
}

// Hello runs the one-round participant discovery: everyone broadcasts
// its ID on all ports; the awake senders are exactly the participants.
func (p *SProc) Hello() bool {
	w := p.cur
	p.cur += spanAdjacent
	p.proc = procNone
	return p.yield(w, opHello, 0, true)
}

// adjacent runs a one-round exchange among participants; when it
// completes, p.in holds the inbox filtered to messages of the given
// kind. A nil payload sends nothing.
func (p *SProc) adjacent(kind uint8, payload []int64) bool {
	w := p.cur
	p.cur += spanAdjacent
	p.kind, p.out = kind, payload
	return p.yield(w, opAdjacent, 0, payload != nil && len(p.active) > 0)
}

// adjacentTargeted runs a one-round exchange in which only the given
// port (if ≥ 0) is sent the payload; when it completes, p.got holds
// every port a payload arrived on.
func (p *SProc) adjacentTargeted(port int, payload []int64) bool {
	w := p.cur
	p.cur += spanAdjacent
	p.port, p.out = port, payload
	return p.yield(w, opTargeted, 0, port >= 0 && payload != nil)
}

// upcast runs one upcast half-window: a node at depth d listens for its
// children's values at offset np-d-1 and sends its merged value to its
// parent at offset np-d. own is the node's contribution (nil for
// none); merge folds child values into the accumulator. When it
// completes, p.acc holds the node's accumulated value (at the root:
// the tree-wide aggregate) and p.childVals the per-child values.
func (p *SProc) upcast(own []int64, merge func(acc, in []int64) []int64) bool {
	p.w = p.cur
	p.cur += spanWindow(p.np)
	p.acc, p.merge = own, merge
	if len(p.children) > 0 {
		return p.yield(p.w+int64(p.np-p.depth-1), opUpcast, 0, false)
	}
	return p.upcastSend()
}

func (p *SProc) upcastSend() bool {
	if p.parentPort >= 0 && p.acc != nil {
		return p.yield(p.w+int64(p.np-p.depth), opUpcast, 1, true)
	}
	return false
}

// downcast runs one downcast half-window: a node at depth d receives
// its value from its parent at offset d-1 and sends per-child values at
// offset d. rootVal seeds the root; split, if non-nil, derives each
// child's value (nil forwards the node's value unchanged). Nodes whose
// parent sends nothing receive nil and send nothing. When it
// completes, p.mine holds the node's value.
func (p *SProc) downcast(rootVal []int64, split func(p *SProc, mine []int64, i int) []int64) bool {
	p.w = p.cur
	p.cur += spanWindow(p.np)
	p.split = split
	p.mine = nil
	if p.parentPort < 0 {
		p.mine = rootVal
		return p.downcastSend()
	}
	return p.yield(p.w+int64(p.depth-1), opDowncast, 0, false)
}

func (p *SProc) downcastSend() bool {
	if len(p.children) > 0 && p.mine != nil {
		return p.yield(p.w+int64(p.depth), opDowncast, 1, true)
	}
	return false
}

// upRelabel runs the first relabel half-window (Appendix A, stage 3b):
// the wave climbs from the attachment node to the old fragment root
// along old-depth offsets, reversing parent pointers. A pending relabel
// in p.pend (if p.hasPend) marks this node as the attachment
// initiator; otherwise the node may discover one.
func (p *SProc) upRelabel() bool {
	p.w = p.cur
	p.cur += spanWindow(p.np)
	if len(p.children) > 0 {
		return p.yield(p.w+int64(p.np-p.depth-1), opUpRelabel, 0, false)
	}
	return p.upRelabelSend()
}

func (p *SProc) upRelabelSend() bool {
	if p.hasPend && p.parentPort >= 0 {
		return p.yield(p.w+int64(p.np-p.depth), opUpRelabel, 1, true)
	}
	return false
}

// downRelabel runs the second relabel half-window: nodes off the
// reversal path learn their new root ID and depth from their (old)
// parent, along old-depth offsets.
func (p *SProc) downRelabel() bool {
	p.w = p.cur
	p.cur += spanWindow(p.np)
	if p.parentPort >= 0 {
		return p.yield(p.w+int64(p.depth-1), opDownRelabel, 0, false)
	}
	return p.downRelabelSend()
}

func (p *SProc) downRelabelSend() bool {
	if len(p.children) > 0 && p.hasPend {
		return p.yield(p.w+int64(p.depth), opDownRelabel, 1, true)
	}
	return false
}

// Rank computes the node's rank in the in-order-style total ordering of
// Appendix A.3 (visit the lowest-port subtree, then the node, then the
// remaining subtrees) and the exact number of nodes in the LDT, read
// afterwards with Ranked. Ranks are 1-based.
func (p *SProc) Rank() bool {
	p.proc, p.pc = procRank, 0
	return p.runRank()
}

func (p *SProc) runRank() bool {
	for {
		switch p.pc {
		case 0:
			// Upcast subtree sizes. The root never sends its own value,
			// so it may live in the frame.
			own := p.seed[:1]
			if p.IsRoot() {
				own[0] = 1
			} else {
				own = []int64{1}
			}
			p.pc = 1
			if p.upcast(own, mergeSum) {
				return true
			}
		case 1:
			p.subtree = p.acc[0]
			p.first = 0
			if len(p.children) > 0 {
				p.first = p.childVals[0][0]
			}
			var seed []int64
			if p.IsRoot() {
				p.seed = [2]int64{0, p.subtree}
				seed = p.seed[:]
			}
			p.pc = 2
			if p.downcast(seed, rankSplit) {
				return true
			}
		default:
			if got := p.mine; got != nil {
				p.rank, p.total = int(got[0]+p.first+1), int(got[1])
			} else {
				// Singleton LDT (no parent, no children): seed stands.
				p.rank, p.total = int(p.first+1), int(p.subtree)
			}
			return false
		}
	}
}

// mergeSum folds upcast subtree sizes.
func mergeSum(acc, in []int64) []int64 { return []int64{acc[0] + in[0]} }

// rankSplit is Rank's downcast value for children[i]: the first
// child's subtree precedes the node, later subtrees follow it.
func rankSplit(p *SProc, mine []int64, i int) []int64 {
	if i == 0 {
		return []int64{mine[0], mine[1]}
	}
	off := mine[0] + p.first + 1
	for _, v := range p.childVals[1:i] {
		off += v[0]
	}
	return []int64{off, mine[1]}
}

// BroadcastChunks ships a root payload of payloadBits bits to every
// node in numChunks downcast windows of chunkBits bits each; the root
// sends "null" chunks once the payload is exhausted (§5.3). The root
// supplies the payload, and Data returns the reassembled payload bytes
// (zero-padded to whole bytes) on every node afterwards.
func (p *SProc) BroadcastChunks(payload []byte, payloadBits, chunkBits, numChunks int) bool {
	p.proc, p.iter, p.iters = procChunks, 0, numChunks
	p.payload, p.payloadBits, p.chunkBits = payload, payloadBits, chunkBits
	p.bits = bitAccum{out: make([]byte, 0, (payloadBits+7)/8)}
	return p.runChunks()
}

func (p *SProc) runChunks() bool {
	for p.iter < p.iters {
		c := p.iter
		p.iter++
		if p.chunkWindow(c) {
			return true
		}
	}
	return false
}

// chunkWindow runs chunk c's downcast window.
func (p *SProc) chunkWindow(c int) bool {
	p.w = p.cur
	p.cur += spanWindow(p.np)
	p.chunk = nil
	if !p.IsRoot() {
		return p.yield(p.w+int64(p.depth-1), opChunk, 0, false)
	}
	lo, hi := chunkRange(c, p.chunkBits, p.payloadBits)
	if len(p.children) == 0 {
		// Nothing to send: append the chunk straight from the payload.
		p.bits.appendRange(p.payload, lo, hi)
		return false
	}
	cm := chunkMsg{}
	if lo < hi {
		cm = chunkMsg{Data: sliceBits(p.payload, lo, hi), NBits: hi - lo}
	}
	p.chunk = cm
	return p.chunkForward()
}

func (p *SProc) chunkForward() bool {
	if len(p.children) > 0 && p.chunk != nil {
		return p.yield(p.w+int64(p.depth), opChunk, 1, true)
	}
	p.chunkDone()
	return false
}

func (p *SProc) chunkDone() {
	if p.chunk == nil {
		return
	}
	if cm := p.chunk.(chunkMsg); cm.NBits > 0 {
		p.bits.append(cm.Data, cm.NBits)
	}
}
