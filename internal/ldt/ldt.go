// Package ldt implements Labeled Distance Trees (§5.2, Appendix A):
// oriented, depth-labeled spanning trees over a connected participant
// set, together with the awake-efficient tree procedures the paper
// builds on them — upcast, downcast (Fragment-Broadcast), adjacent
// exchange (Transmit-Adjacent), ranking, chunked root broadcasts — and
// two distributed constructions:
//
//   - ConstructAwake: a randomized fragment-merging construction with
//     O(log n′) awake complexity w.h.p. It is used in place of the
//     deterministic construction behind Theorem 4 of
//     [Augustine–Moses–Pandurangan 2022], which lives in a different
//     paper, and meets the same awake bound with high probability
//     instead of always.
//   - ConstructRound: the deterministic construction of Appendix A
//     (GHS-style fragment merging with Cole–Vishkin 6-coloring and
//     fragment matching), with O((log n′)·log* I) awake complexity.
//
// All procedures are scheduled as fixed windows of rounds derived from
// the known component-size bound np, so every participant computes the
// same timetable locally and sleeps outside its O(1) awake rounds per
// window — exactly the transmission-schedule idea of Appendix A.1
// (split here into an upcast half-window and a downcast half-window).
package ldt

import (
	"fmt"
	"math/bits"
	"sort"

	"awakemis/internal/bitio"
	"awakemis/internal/sim"
)

// Window spans: an adjacent exchange takes one round; a tree half-window
// (upcast, downcast, or relabel wave) takes np+1 rounds, indexed by
// depth offsets as described on each primitive.
const spanAdjacent = 1

func spanWindow(np int) int64 { return int64(np) + 1 }

// message kinds
const (
	kHello   uint8 = iota + 1
	kRoot          // adjacent: fragment identity (and phase payloads)
	kUp            // upcast value
	kDown          // downcast value
	kRelabel       // relabel wave value
	kChunk         // broadcast chunk
)

// opMsg is the general LDT control message: a kind tag plus up to a few
// small integer fields. Bits accounts 5 bits for the kind, 3 for the
// field count, and sign+magnitude for each field, keeping every control
// message within O(log I) bits.
type opMsg struct {
	Kind uint8
	F    []int64
}

// Bits implements sim.Message.
func (m opMsg) Bits() int {
	b := 5 + 3
	for _, f := range m.F {
		b += bitio.IntBits(f)
	}
	return b
}

// chunkMsg carries one chunk of a root broadcast payload.
type chunkMsg struct {
	Data  []byte
	NBits int
}

// Bits implements sim.Message.
func (m chunkMsg) Bits() int { return 8 + m.NBits }

var (
	_ sim.Message = opMsg{}
	_ sim.Message = chunkMsg{}
)

// treeState is the pure (communication-free) half of a node's LDT
// session: identity, discovered topology, and the oriented labeled
// tree, with the tree-mutation logic (relabeling, child bookkeeping,
// edge selection) that SProc's primitives apply.
type treeState struct {
	np int
	id int64 // unique node ID in [1, I]

	// Topology discovered by Hello.
	active []int   // ports to participants, ascending
	nbrID  []int64 // nbrID[i]: ID of the participant on port active[i]

	// LDT state.
	rootID     int64
	depth      int
	parentPort int   // -1 at the root
	children   []int // ports, ascending
}

func newTreeState(id int64, np int) treeState {
	if np < 1 {
		panic(fmt.Sprintf("ldt: np=%d", np))
	}
	return treeState{
		np:         np,
		id:         id,
		rootID:     id,
		parentPort: -1,
	}
}

// IsRoot reports whether this node is the LDT root.
func (t *treeState) IsRoot() bool { return t.parentPort < 0 }

// Active returns the ports leading to participating neighbors.
func (t *treeState) Active() []int { return t.active }

// pending carries a node's not-yet-applied relabeling after a merge:
// its new root ID, depth, parent port, and (for path nodes) the child
// port the wave arrived through.
type pending struct {
	rootID   int64
	depth    int
	parent   int
	viaChild int // -1 for non-path nodes and the attachment initiator
}

// applyPending installs a relabel: path nodes (viaChild >= 0) reverse
// orientation — the wave's child becomes the parent and the old parent
// becomes a child; the attachment initiator keeps its prepared external
// parent and gains its old parent as a child.
func (p *treeState) applyPending(pend *pending, oldParent int) {
	if pend == nil {
		return
	}
	p.rootID = pend.rootID
	p.depth = pend.depth
	if pend.viaChild >= 0 {
		p.removeChild(pend.viaChild)
		if oldParent >= 0 {
			p.addChild(oldParent)
		}
		p.parentPort = pend.viaChild
	} else if pend.parent != oldParent {
		// Attachment initiator: parent moves to the external port.
		if oldParent >= 0 {
			p.addChild(oldParent)
		}
		p.parentPort = pend.parent
	}
	// Non-path nodes (viaChild < 0, parent unchanged) keep orientation.
}

func (p *treeState) addChild(q int) {
	for i, c := range p.children {
		if c == q {
			return
		} else if c > q {
			p.children = append(p.children[:i], append([]int{q}, p.children[i:]...)...)
			return
		}
	}
	p.children = append(p.children, q)
}

func (p *treeState) removeChild(q int) {
	for i, c := range p.children {
		if c == q {
			p.children = append(p.children[:i], p.children[i+1:]...)
			return
		}
	}
}

// portIndex returns the index of port q in the ascending list ports,
// or -1.
func portIndex(ports []int, q int) int {
	i := sort.SearchInts(ports, q)
	if i < len(ports) && ports[i] == q {
		return i
	}
	return -1
}

// activeIndex returns the index of port q in active, or -1.
func (p *treeState) activeIndex(q int) int { return portIndex(p.active, q) }

// nbrIDOf returns the ID of the participant on port q (0 if q is not
// an active port).
func (p *treeState) nbrIDOf(q int) int64 {
	if i := p.activeIndex(q); i >= 0 {
		return p.nbrID[i]
	}
	return 0
}

// nbrRoots reads the fragment IDs (field 0) of a kRoot adjacent
// exchange into roots, aligned with active: roots[i] is what port
// active[i] sent, or 0 if it sent nothing (node IDs are ≥ 1). roots'
// backing array is reused when large enough.
func (p *treeState) nbrRoots(in []sim.Inbound, roots []int64) []int64 {
	roots = roots[:0]
	for range p.active {
		roots = append(roots, 0)
	}
	for _, m := range in {
		if i := p.activeIndex(m.Port); i >= 0 {
			roots[i] = m.Msg.(opMsg).F[0]
		}
	}
	return roots
}

// minEdge returns the node's minimum incident outgoing edge as
// (lo, hi) with respect to current fragment IDs (nbrRoot as returned by
// nbrRoots), or nil if none.
func (p *treeState) minEdge(nbrRoot []int64) []int64 {
	found := false
	var bestLo, bestHi int64
	for i, r := range nbrRoot {
		if r == 0 || r == p.rootID {
			continue
		}
		lo, hi := p.id, p.nbrID[i]
		if lo > hi {
			lo, hi = hi, lo
		}
		if !found || lo < bestLo || (lo == bestLo && hi < bestHi) {
			bestLo, bestHi, found = lo, hi, true
		}
	}
	if !found {
		return nil
	}
	return []int64{bestLo, bestHi}
}

// edgePort returns the active port realizing edge (lo, hi) incident to
// this node, or -1.
func (p *treeState) edgePort(lo, hi int64) int {
	other := int64(-1)
	switch p.id {
	case lo:
		other = hi
	case hi:
		other = lo
	default:
		return -1
	}
	for i, q := range p.active {
		if p.nbrID[i] == other {
			return q
		}
	}
	return -1
}

// mergeMinEdge folds upcast min-edge values.
func mergeMinEdge(acc, in []int64) []int64 {
	if in == nil {
		return acc
	}
	if acc == nil || in[0] < acc[0] || (in[0] == acc[0] && in[1] < acc[1]) {
		return in
	}
	return acc
}

// log2ceil returns ⌈log₂ x⌉ for x ≥ 1.
func log2ceil(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}
