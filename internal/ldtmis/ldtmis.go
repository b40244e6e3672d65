// Package ldtmis implements Algorithm LDT-MIS (§5.3, Lemma 11):
// compute an LFMIS with respect to a uniformly random node ordering,
// in O(log n′) awake rounds even when node IDs come from a huge space
// I ≫ n′. Its sibling LDT-MIS-ROUND (Corollary 12, VariantRound)
// builds the labeled distance tree with Appendix A's deterministic
// construction instead. That construction spans 19(L+1)/(4L+12) times
// the rounds of the randomized one, where L = ⌈log₂(n′+1)⌉, so the
// sibling saves no rounds here.
//
// The pipeline on each connected participant component of at most np
// nodes: (1) build a labeled distance tree; (2) rank the nodes and
// learn the exact component size; (3) the root draws a uniformly
// random permutation and ships it down in O((n′ log n′)/log I) chunked
// broadcasts; (4) each node adopts the permutation entry at its rank as
// a fresh small ID and runs VT-MIS with those IDs.
//
// The node program is a step machine (Session and StepProgram, built
// on internal/ldt's resumable SProc ops), which the stepped engine
// executes inline with no per-node goroutine.
package ldtmis

import (
	"context"
	"fmt"

	"awakemis/internal/bitio"
	"awakemis/internal/graph"
	"awakemis/internal/ldt"
	"awakemis/internal/sim"
)

// Variant selects the LDT construction.
type Variant int

const (
	// VariantAwake uses the randomized O(log n′)-awake construction
	// (Theorem 13 pipeline).
	VariantAwake Variant = iota
	// VariantRound uses the deterministic Appendix A construction
	// (Corollary 14 pipeline).
	VariantRound
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == VariantRound {
		return "round"
	}
	return "awake"
}

// constructPhases returns the phase budget for the variant.
func constructPhases(v Variant, np int) int {
	if v == VariantRound {
		return ldt.DefaultRoundPhases(np)
	}
	return ldt.DefaultAwakePhases(np)
}

// permWidth is the fixed bit width of one permutation entry.
func permWidth(np int) int { return bitio.UintBits(uint64(np)) }

// buildPermPayload is the root's side of the permutation shipment: a
// uniformly random permutation of [1, total], each entry in width
// bits, null-filled to payloadBits per §5.3.
func buildPermPayload(rnd *sim.Rand, total, width, payloadBits int) []byte {
	perm := rnd.Perm(total)
	var w bitio.Writer
	w.Grow(max(total*width, payloadBits))
	for _, v := range perm {
		w.WriteUint(uint64(v+1), width)
	}
	if pad := payloadBits - w.Len(); pad > 0 {
		w.WriteZeros(pad) // null filler per §5.3
	}
	return w.Bytes()
}

// decodeNewID extracts the rank-th width-bit permutation entry from
// the reassembled payload: the node's new small ID.
func decodeNewID(data []byte, rank, width int) int {
	r := bitio.NewReader(data)
	newID := 0
	for i := 0; i < rank; i++ {
		u, err := r.ReadUint(width)
		if err != nil {
			panic(fmt.Sprintf("ldtmis: permutation decode: %v", err))
		}
		newID = int(u)
	}
	return newID
}

// permChunks returns the chunk geometry for shipping an np-entry
// permutation under the given bandwidth.
func permChunks(np, bandwidth int) (payloadBits, chunkBits, numChunks int) {
	payloadBits = np * permWidth(np)
	chunkBits = bandwidth / 2
	if chunkBits < 1 {
		chunkBits = 1
	}
	numChunks = ldt.NumChunks(payloadBits, chunkBits)
	return payloadBits, chunkBits, numChunks
}

// Span returns the total number of rounds a Session occupies from its
// base round, for schedule pre-computation by composing algorithms
// (Awake-MIS sizes its phases with this).
func Span(np, bandwidth int, v Variant) int64 {
	var construct int64
	if v == VariantRound {
		construct = ldt.SpanConstructRound(np, constructPhases(v, np))
	} else {
		construct = ldt.SpanConstructAwake(np, constructPhases(v, np))
	}
	_, _, numChunks := permChunks(np, bandwidth)
	return 1 + // hello
		construct +
		ldt.SpanRank(np) +
		ldt.SpanBroadcastChunks(np, numChunks) +
		int64(np) // VT-MIS window
}

// SpanFits reports whether Span(np, bandwidth, v) is at most limit.
// For np and limit below 2⁴⁰ it never overflows, at any bandwidth: the
// one term that can pass int64's range there, the permutation
// broadcast's chunk count times its window, is bounded before it is
// formed.
func SpanFits(np, bandwidth int, v Variant, limit int64) bool {
	_, _, numChunks := permChunks(np, bandwidth)
	if int64(numChunks) > limit/ldt.SpanBroadcastChunks(np, 1) {
		return false
	}
	return Span(np, bandwidth, v) <= limit
}

// Result collects standalone outputs.
type Result struct {
	InMIS []bool
	// NewID[v] is the random small ID node v drew; within each
	// component the output is the LFMIS with respect to ascending
	// NewID.
	NewID []int
}

// RunContext executes standalone LDT-MIS on g: every node
// participates, with the provided unique IDs (from an arbitrarily
// large space) and a common component-size bound np ≥ the largest
// component of g. Cancelling ctx aborts the simulation at the next
// round boundary.
func RunContext(ctx context.Context, g *graph.Graph, ids []int64, np int, v Variant, cfg sim.Config) (*Result, *sim.Metrics, error) {
	if len(ids) != g.N() {
		return nil, nil, fmt.Errorf("ldtmis: %d ids for %d nodes", len(ids), g.N())
	}
	seen := make(map[int64]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			return nil, nil, fmt.Errorf("ldtmis: duplicate id %d", id)
		}
		seen[id] = true
	}
	res := &Result{InMIS: make([]bool, g.N()), NewID: make([]int, g.N())}
	m, err := sim.RunStepContext(ctx, g, StepProgram(res, ids, np, v), cfg)
	return res, m, err
}
