package ldt

// This file implements the two LDT constructions.
//
// ConstructAwake (randomized; used in place of the deterministic
// construction behind Theorem 4 of [2], whose O(log n′) awake bound it
// meets with high probability instead of always): repeated fragment
// merging where each fragment flips a
// coin and every tails fragment whose minimum outgoing edge points at a
// heads fragment merges into it. Each phase costs O(1) awake rounds per
// node, and O(log n′) phases suffice w.h.p., giving O(log n′) awake
// complexity.
//
// ConstructRound (deterministic; Appendix A): GHS-style phases in which
// every fragment finds its minimum outgoing edge, fragments form
// supergraph trees, a Cole–Vishkin 6-coloring of each tree drives a
// maximal fragment matching, unmatched fragments attach to their
// parent (or a child, at the tree root), and the resulting small-depth
// trees (diameter ≤ 4) merge around their smallest-ID fragment.
// ⌈log₂ n′⌉ + 1 phases merge everything deterministically.

// DefaultAwakePhases returns the default number of randomized merge
// phases for a component bound np: generous enough that all components
// of size ≤ np finish w.h.p. (each fragment merges with probability
// ≥ 1/4 per phase).
func DefaultAwakePhases(np int) int { return 4*log2ceil(np+1) + 12 }

// DefaultRoundPhases returns the number of deterministic GHS phases
// that guarantee completion: fragments at least halve per phase.
func DefaultRoundPhases(np int) int { return log2ceil(np+1) + 1 }

// SpanConstructAwake returns the number of rounds ConstructAwake
// occupies for the given parameters.
func SpanConstructAwake(np, phases int) int64 {
	return int64(phases) * (2*spanAdjacent + 4*spanWindow(np))
}

// ConstructAwake runs the randomized construction for the given number
// of phases. On return every participant of a component of size ≤ np
// belongs (w.h.p.) to a single LDT spanning the component.
func (p *Proc) ConstructAwake(phases int) {
	for ph := 0; ph < phases; ph++ {
		// (a) Exchange fragment IDs with neighbors.
		nbrRoot := p.nbrRoots(p.adjacent(kRoot, []int64{p.rootID}), nil)

		// (b) Upcast the fragment's minimum outgoing edge.
		agg, _ := p.upcast(p.minEdge(nbrRoot), mergeMinEdge)

		// (c) Root draws the phase coin and broadcasts (edge, coin).
		var down []int64
		if p.IsRoot() {
			if agg != nil {
				down = []int64{agg[0], agg[1], int64(p.ctx.Rand().Intn(2))}
			}
			// No outgoing edge: component complete; broadcast nothing.
		}
		dec := p.downcast(down, nil)

		var chosenLo, chosenHi, coin int64 = -1, -1, 0
		if dec != nil {
			chosenLo, chosenHi, coin = dec[0], dec[1], dec[2]
		}

		// (d) Endpoint exchange across fragment boundaries: everyone
		// announces (rootID, coin, depth, chosenLo, chosenHi).
		ann := []int64{p.rootID, coin, int64(p.depth), chosenLo, chosenHi}
		in := p.adjacent(kRoot, ann)

		var pend *pending
		myPort := -1
		if chosenLo >= 0 {
			myPort = p.edgePort(chosenLo, chosenHi)
		}
		for _, m := range in {
			f := m.Msg.(opMsg).F
			nRoot, nCoin, nDepth, nLo, nHi := f[0], f[1], f[2], f[3], f[4]
			if nRoot == p.rootID {
				continue
			}
			// Tails fragment attaches through its chosen edge into a
			// heads fragment.
			if coin == 0 && m.Port == myPort && nCoin == 1 {
				pend = &pending{
					rootID:   nRoot,
					depth:    int(nDepth) + 1,
					parent:   m.Port,
					viaChild: -1,
				}
			}
			// Heads side: a tails neighbor whose chosen edge is this
			// edge becomes a child.
			if coin == 1 && nCoin == 0 && nLo >= 0 {
				if q := p.edgePort(nLo, nHi); q == m.Port {
					p.addChild(m.Port)
				}
			}
		}

		// (e) Relabel the merging fragment.
		oldParent := p.parentPort
		pend = p.upRelabel(pend)
		pend = p.downRelabel(pend)
		p.applyPending(pend, oldParent)
	}
}

// crSpanPerPhase mirrors the exact window sequence of one
// ConstructRound phase; a test asserts the implementation consumes
// exactly this many rounds.
func crSpanPerPhase(np int) int64 {
	w := spanWindow(np)
	adj := int64(spanAdjacent)
	s1 := adj + w + w + adj                    // ids, up min edge, down, endpoint exchange
	s2a := w + w                               // mutual upcast, T-root flag downcast
	colorStep := w + adj + w                   // downcast color, adjacent, upcast parent color
	cv := int64(cvIterations+4)*colorStep + w  // 6 CV iters + 2×(shift-down, recolor), final distribute
	match := 6*(w+adj+w+w+adj+w) + w           // per color: m1..m6; then final refresh
	s2e := adj                                 // attach-to-parent notification
	s2f := w + w + adj                         // up, down, notify chosen child
	s3core := int64(coreIters) * (adj + w + w) // core-ID propagation
	s3rel := int64(coreIters) * (adj + w + w)  // relabel waves
	return s1 + s2a + cv + match + s2e + s2f + s3core + s3rel
}

// cvIterations bounds the Cole–Vishkin color-length reduction: from
// 64-bit colors, 6 iterations reach 3-bit colors (64→7→4→3, fixed
// point), matching the O(log* I) bound with I ≤ 2⁶⁴.
const cvIterations = 6

// coreIters covers propagation across the small-depth trees of
// Appendix A stage 3 (fragment diameter ≤ 4, plus slack).
const coreIters = 6

// SpanConstructRound returns the number of rounds ConstructRound
// occupies.
func SpanConstructRound(np, phases int) int64 {
	return int64(phases) * crSpanPerPhase(np)
}

// cvStep performs one Cole–Vishkin bit-reduction step.
func cvStep(color, parent int64) int64 {
	diff := color ^ parent
	i := int64(0)
	for diff != 0 && diff&1 == 0 {
		diff >>= 1
		i++
	}
	return 2*i + (color>>uint(i))&1
}

// syntheticParent gives the tree root a pseudo-parent color differing
// from its own.
func syntheticParent(color int64) int64 {
	if color == 0 {
		return 1
	}
	return 0
}

// ConstructRound runs the deterministic Appendix A construction for
// the given number of phases (DefaultRoundPhases(np) suffices).
func (p *Proc) ConstructRound(phases int) {
	for ph := 0; ph < phases; ph++ {
		p.constructRoundPhase()
	}
}

func (p *Proc) constructRoundPhase() {
	// ---- Stage 1: minimum outgoing edge, known to all members. ----
	nbrRoot := p.nbrRoots(p.adjacent(kRoot, []int64{p.rootID}), nil)
	agg, _ := p.upcast(p.minEdge(nbrRoot), mergeMinEdge)
	var down []int64
	if p.IsRoot() && agg != nil {
		down = []int64{agg[0], agg[1]}
	}
	dec := p.downcast(down, nil)
	var chosenLo, chosenHi int64 = -1, -1
	if dec != nil {
		chosenLo, chosenHi = dec[0], dec[1]
	}
	parentEdgePort := -1
	if chosenLo >= 0 {
		parentEdgePort = p.edgePort(chosenLo, chosenHi)
	}

	// Endpoint exchange: (rootID, chosenLo, chosenHi).
	in := p.adjacent(kRoot, []int64{p.rootID, chosenLo, chosenHi})
	nbrChosen := map[int][2]int64{}
	for _, m := range in {
		f := m.Msg.(opMsg).F
		nbrChosen[m.Port] = [2]int64{f[1], f[2]}
	}
	// childPorts: ports whose neighbor fragment chose the edge to us.
	childPorts := []int{}
	for i, q := range p.active {
		if nbrRoot[i] == p.rootID {
			continue
		}
		ch, ok := nbrChosen[q]
		if !ok || ch[0] < 0 {
			continue
		}
		if p.edgePort(ch[0], ch[1]) == q {
			childPorts = append(childPorts, q)
		}
	}

	// ---- Stage 2a: identify the supergraph-tree root fragment. ----
	// The mutual pair: our chosen edge's far side also chose it.
	var mutual []int64 // [otherRootID]
	if parentEdgePort >= 0 {
		if ch, ok := nbrChosen[parentEdgePort]; ok && ch == [2]int64{chosenLo, chosenHi} {
			mutual = []int64{nbrRoot[p.activeIndex(parentEdgePort)]}
		}
	}
	aggMut, _ := p.upcast(mutual, mergeFirst)
	var tFlag []int64
	if p.IsRoot() {
		isTRoot := int64(0)
		if chosenLo < 0 {
			isTRoot = 1 // no outgoing edge: fragment is alone, trivially root
		} else if aggMut != nil && p.rootID < aggMut[0] {
			isTRoot = 1
		}
		tFlag = []int64{isTRoot}
	}
	flag := p.downcast(tFlag, nil)
	isTRoot := flag != nil && flag[0] == 1

	// ---- Stage 2c: Cole–Vishkin 6-coloring of fragments. ----
	// Each mini-step: downcast current color, adjacent exchange, upcast
	// the parent fragment's color, root computes the next color.
	color := p.rootID
	colorStep := func(compute func(cur, parentColor, childColor int64) int64) {
		cur := p.downcast(colorValIfRoot(&p.treeState, color), nil)
		if cur != nil {
			color = cur[0]
		}
		ex := p.adjacent(kRoot, []int64{p.rootID, color})
		var parentColor, childColor []int64
		for _, m := range ex {
			f := m.Msg.(opMsg).F
			if m.Port == parentEdgePort {
				parentColor = []int64{f[1]}
			}
			for _, q := range childPorts {
				if m.Port == q {
					childColor = []int64{f[1]}
				}
			}
		}
		own := []int64{encOpt(parentColor), encOpt(childColor)}
		aggC, _ := p.upcast(own, mergeOptPair)
		if p.IsRoot() {
			pc, cc := int64(-1), int64(-1)
			if aggC != nil {
				pc, cc = aggC[0], aggC[1]
			}
			if isTRoot || pc < 0 {
				pc = syntheticParent(color)
			}
			color = compute(color, pc, cc)
		}
	}
	for it := 0; it < cvIterations; it++ {
		colorStep(func(cur, pc, _ int64) int64 { return cvStep(cur, pc) })
	}
	// Two shift-down + recolor passes eliminate colors 7 and 6.
	for _, target := range []int64{7, 6} {
		colorStep(func(cur, pc, _ int64) int64 {
			// Shift down: take the parent's color; the T-root picks a
			// fresh color from {0,1,2} different from its own.
			if isTRoot {
				return syntheticParent(cur)
			}
			return pc
		})
		colorStep(func(cur, pc, cc int64) int64 {
			if cur != target {
				return cur
			}
			for c := int64(0); c < 6; c++ {
				if c != pc && c != cc {
					return c
				}
			}
			return cur // unreachable
		})
	}
	// Distribute the final color.
	if fin := p.downcast(colorValIfRoot(&p.treeState, color), nil); fin != nil {
		color = fin[0]
	}

	// ---- Stage 2d: maximal matching of fragments along tree edges. ----
	matched := false
	fPorts := []int{} // my ports that carry F-edges (supergraph forest edges)
	for c := int64(0); c < 6; c++ {
		// m1: refresh members' matched flag.
		var mv []int64
		if p.IsRoot() {
			mv = []int64{b2i(matched)}
		}
		if d := p.downcast(mv, nil); d != nil {
			matched = d[0] == 1
		}
		// m2: exchange (rootID, matched).
		ex := p.adjacent(kRoot, []int64{p.rootID, b2i(matched)})
		nbrMatched := map[int]bool{}
		for _, m := range ex {
			f := m.Msg.(opMsg).F
			nbrMatched[m.Port] = f[1] == 1
		}
		// m3: upcast minimum unmatched-child edge (color-c fragments).
		var own []int64
		if !matched && color == c {
			for _, q := range childPorts {
				if nbrMatched[q] {
					continue
				}
				lo, hi := p.id, p.nbrIDOf(q)
				if lo > hi {
					lo, hi = hi, lo
				}
				if own == nil || lo < own[0] || (lo == own[0] && hi < own[1]) {
					own = []int64{lo, hi}
				}
			}
		}
		aggE, _ := p.upcast(own, mergeMinEdge)
		// m4: downcast the chosen edge; choosing marks us matched.
		var pick []int64
		if p.IsRoot() && !matched && color == c && aggE != nil {
			pick = []int64{aggE[0], aggE[1]}
			matched = true
		}
		d := p.downcast(pick, nil)
		var pickPort = -1
		if d != nil {
			matched = true
			pickPort = p.edgePort(d[0], d[1])
			if pickPort >= 0 {
				// Only the endpoint whose port crosses to the child counts.
				found := false
				for _, q := range childPorts {
					if q == pickPort {
						found = true
					}
				}
				if !found {
					pickPort = -1
				}
			}
		}
		// m5: notify the chosen child across the edge.
		var note []int64
		if pickPort >= 0 {
			note = []int64{1}
			fPorts = append(fPorts, pickPort)
		}
		justMatched := -1
		for _, got := range p.adjacentTargeted(pickPort, note) {
			if got == parentEdgePort {
				// Our parent matched us through our parent edge.
				justMatched = got
				fPorts = append(fPorts, got)
			}
		}
		// m6: the newly matched child fragment informs its root.
		var up []int64
		if justMatched >= 0 {
			up = []int64{1}
		}
		aggJ, _ := p.upcast(up, mergeFirst)
		if p.IsRoot() && aggJ != nil {
			matched = true
		}
	}
	// Final matched-flag refresh.
	var mv []int64
	if p.IsRoot() {
		mv = []int64{b2i(matched)}
	}
	if d := p.downcast(mv, nil); d != nil {
		matched = d[0] == 1
	}

	// ---- Stage 2e: unmatched non-root fragments attach to parent. ----
	var attach []int64
	attachPort := -1
	if !matched && !isTRoot && parentEdgePort >= 0 {
		attachPort = parentEdgePort
		attach = []int64{1}
		fPorts = append(fPorts, parentEdgePort)
	}
	fPorts = append(fPorts, p.adjacentTargeted(attachPort, attach)...)

	// ---- Stage 2f: an unmatched T-root attaches to one child. ----
	var ownC []int64
	if !matched && isTRoot {
		for _, q := range childPorts {
			lo, hi := p.id, p.nbrIDOf(q)
			if lo > hi {
				lo, hi = hi, lo
			}
			if ownC == nil || lo < ownC[0] || (lo == ownC[0] && hi < ownC[1]) {
				ownC = []int64{lo, hi}
			}
		}
	}
	aggC2, _ := p.upcast(ownC, mergeMinEdge)
	var pick2 []int64
	if p.IsRoot() && !matched && isTRoot && aggC2 != nil {
		pick2 = []int64{aggC2[0], aggC2[1]}
	}
	d2 := p.downcast(pick2, nil)
	pick2Port := -1
	if d2 != nil {
		if q := p.edgePort(d2[0], d2[1]); q >= 0 {
			for _, c := range childPorts {
				if c == q {
					pick2Port = q
					fPorts = append(fPorts, q)
				}
			}
		}
	}
	var note2 []int64
	if pick2Port >= 0 {
		note2 = []int64{1}
	}
	fPorts = append(fPorts, p.adjacentTargeted(pick2Port, note2)...)

	// ---- Stage 3: merge each small-depth tree around its minimum
	// fragment ID. ----
	fSet := map[int]bool{}
	for _, q := range fPorts {
		fSet[q] = true
	}
	coreID := p.rootID
	for it := 0; it < coreIters; it++ {
		ex := p.adjacent(kRoot, []int64{coreID})
		best := coreID
		for _, m := range ex {
			if !fSet[m.Port] {
				continue
			}
			if v := m.Msg.(opMsg).F[0]; v < best {
				best = v
			}
		}
		var up []int64
		if best < coreID {
			up = []int64{best}
		}
		aggM, _ := p.upcast(up, mergeMinVal)
		var dn []int64
		if p.IsRoot() {
			c := coreID
			if aggM != nil && aggM[0] < c {
				c = aggM[0]
			}
			dn = []int64{c}
		}
		if d := p.downcast(dn, nil); d != nil {
			coreID = d[0]
		}
	}

	for it := 0; it < coreIters; it++ {
		relabeled := p.rootID == coreID
		ex := p.adjacent(kRoot, []int64{b2i(relabeled), coreID, int64(p.depth)})
		var pend *pending
		if !relabeled {
			for _, m := range ex {
				if !fSet[m.Port] {
					continue
				}
				f := m.Msg.(opMsg).F
				if f[0] == 1 && f[1] == coreID {
					pend = &pending{
						rootID:   coreID,
						depth:    int(f[2]) + 1,
						parent:   m.Port,
						viaChild: -1,
					}
					break
				}
			}
		}
		// The far-side (relabeled) endpoint adopts the attaching node
		// as a child.
		if relabeled {
			for _, m := range ex {
				if !fSet[m.Port] {
					continue
				}
				f := m.Msg.(opMsg).F
				if f[0] == 0 {
					p.addChild(m.Port)
				}
			}
		}
		oldParent := p.parentPort
		pend = p.upRelabel(pend)
		pend = p.downRelabel(pend)
		p.applyPending(pend, oldParent)
	}
}

// adjacentTargeted runs a one-round exchange in which only the given
// port (if ≥ 0) is sent the payload; it returns every port a payload
// arrived on (several fragments may notify the same node at once).
func (p *Proc) adjacentTargeted(port int, payload []int64) []int {
	w := p.cur
	p.cur += spanAdjacent
	p.wake(w)
	if port >= 0 && payload != nil {
		p.ctx.Send(port, opMsg{Kind: kRoot, F: payload})
	}
	var got []int
	for _, m := range p.ctx.Deliver() {
		if om, ok := m.Msg.(opMsg); ok && om.Kind == kRoot {
			got = append(got, m.Port)
		}
	}
	return got
}

func colorValIfRoot(t *treeState, color int64) []int64 {
	if t.IsRoot() {
		return []int64{color}
	}
	return nil
}

// mergeFirst keeps the first non-nil upcast value.
func mergeFirst(acc, in []int64) []int64 {
	if acc == nil {
		return in
	}
	return acc
}

// mergeOptPair folds the (parent-color, child-color) optional pairs of
// the Cole–Vishkin color step, -1 encoding "absent".
func mergeOptPair(acc, in []int64) []int64 {
	if acc == nil {
		return in
	}
	out := []int64{acc[0], acc[1]}
	if out[0] < 0 {
		out[0] = in[0]
	}
	if out[1] < 0 {
		out[1] = in[1]
	}
	return out
}

// mergeMinVal keeps the minimum single upcast value.
func mergeMinVal(acc, in []int64) []int64 {
	if acc == nil || (in != nil && in[0] < acc[0]) {
		return in
	}
	return acc
}

// encOpt encodes an optional single-value slice as -1 for absent.
func encOpt(v []int64) int64 {
	if v == nil {
		return -1
	}
	return v[0]
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
