package ldt

// The two LDT constructions described in construct.go, run on SProc.
// ConstructAwake, which every Awake-MIS window runs, is a state machine
// over SProc's frame. ConstructRound, which no hot path runs, stays in
// closure-passing form: each primitive's continuation goes through
// after.

// ConstructAwake's program counter: each value names the stage that
// consumes the previous primitive's result.
const (
	awPhase       uint8 = iota // start a phase: (a) exchange fragment IDs
	awIDs                      // (b) upcast the fragment's minimum outgoing edge
	awEdge                     // (c) the root draws the phase coin and broadcasts
	awDecision                 // (d) endpoint exchange across fragment boundaries
	awEndpoints                // (e) relabel the merging fragment: up wave
	awUpRelabel                // down wave
	awDownRelabel              // install the relabel; next phase
)

// ConstructAwake runs the randomized construction for the given number
// of phases. Once it completes, every participant of a component of
// size ≤ np belongs (w.h.p.) to a single LDT spanning the component.
func (p *SProc) ConstructAwake(phases int) bool {
	p.proc, p.pc, p.iter, p.iters = procAwake, awPhase, 0, phases
	return p.runAwake()
}

func (p *SProc) runAwake() bool {
	for {
		switch p.pc {
		case awPhase:
			if p.iter == p.iters {
				return false
			}
			var ids []int64 // sent only when there is a participant to hear it
			if len(p.active) > 0 {
				ids = []int64{p.rootID}
			}
			p.pc = awIDs
			if p.adjacent(kRoot, ids) {
				return true
			}
		case awIDs:
			p.nbrRoot = p.nbrRoots(p.in, p.nbrRoot)
			p.pc = awEdge
			if p.upcast(p.minEdge(p.nbrRoot), mergeMinEdge) {
				return true
			}
		case awEdge:
			var down []int64
			if p.IsRoot() && p.acc != nil {
				down = []int64{p.acc[0], p.acc[1], int64(p.rnd.Intn(2))}
			}
			// No outgoing edge: component complete; broadcast nothing.
			p.pc = awDecision
			if p.downcast(down, nil) {
				return true
			}
		case awDecision:
			p.chosenLo, p.chosenHi, p.coin = -1, -1, 0
			if dec := p.mine; dec != nil {
				p.chosenLo, p.chosenHi, p.coin = dec[0], dec[1], dec[2]
			}
			// Everyone announces (rootID, coin, depth, chosenLo, chosenHi).
			var ann []int64
			if len(p.active) > 0 {
				ann = []int64{p.rootID, p.coin, int64(p.depth), p.chosenLo, p.chosenHi}
			}
			p.pc = awEndpoints
			if p.adjacent(kRoot, ann) {
				return true
			}
		case awEndpoints:
			p.hasPend = false
			myPort := -1
			if p.chosenLo >= 0 {
				myPort = p.edgePort(p.chosenLo, p.chosenHi)
			}
			for _, m := range p.in {
				f := m.Msg.(opMsg).F
				nRoot, nCoin, nLo, nHi := f[0], f[1], f[3], f[4]
				if nRoot == p.rootID {
					continue
				}
				// Tails fragment attaches through its chosen edge into a
				// heads fragment.
				if p.coin == 0 && m.Port == myPort && nCoin == 1 {
					p.pend = pending{rootID: nRoot, depth: int(f[2]) + 1, parent: m.Port, viaChild: -1}
					p.hasPend = true
				}
				// Heads side: a tails neighbor whose chosen edge is this
				// edge becomes a child.
				if p.coin == 1 && nCoin == 0 && nLo >= 0 {
					if q := p.edgePort(nLo, nHi); q == m.Port {
						p.addChild(m.Port)
					}
				}
			}
			p.oldParent = p.parentPort
			p.pc = awUpRelabel
			if p.upRelabel() {
				return true
			}
		case awUpRelabel:
			p.pc = awDownRelabel
			if p.downRelabel() {
				return true
			}
		default: // awDownRelabel
			if p.hasPend {
				p.applyPending(&p.pend, p.oldParent)
			}
			p.iter++
			p.pc = awPhase
		}
	}
}

// after continues ConstructRound with k once the primitive that
// returned yielded has completed.
func (p *SProc) after(yielded bool, k func()) {
	if yielded {
		p.roundK = k
		return
	}
	k()
}

// ConstructRound runs the deterministic Appendix A construction for the
// given number of phases (DefaultRoundPhases(np) suffices).
func (p *SProc) ConstructRound(phases int) bool {
	if phases == 0 {
		return false
	}
	p.proc = procRound
	var phase func(ph int)
	phase = func(ph int) {
		if ph == phases {
			p.proc = procNone
			p.k()
			return
		}
		// Every phase opens with an adjacent exchange, which yields.
		p.constructRoundPhaseStep(func() { phase(ph + 1) })
	}
	phase(0)
	return true
}

func (p *SProc) constructRoundPhaseStep(done func()) {
	// Phase state shared by the stage continuations.
	var (
		nbrRoot        []int64
		nbrChosen      map[int][2]int64
		chosenLo       int64 = -1
		chosenHi       int64 = -1
		parentEdgePort       = -1
		childPorts     []int
		isTRoot        bool
		color          int64
		matched        bool
		fPorts         []int
	)
	var stage2a, stage2c, stage2d, stage2e, stage2f, stage3 func()

	// colorStep: one Cole–Vishkin mini-step (downcast current color,
	// adjacent exchange, upcast parent/child colors, root recomputes).
	colorStep := func(compute func(cur, parentColor, childColor int64) int64, then func()) {
		p.after(p.downcast(colorValIfRoot(&p.treeState, color), nil), func() {
			cur := p.mine
			if cur != nil {
				color = cur[0]
			}
			p.after(p.adjacent(kRoot, []int64{p.rootID, color}), func() {
				ex := p.in
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
				p.after(p.upcast(own, mergeOptPair), func() {
					aggC := p.acc
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
					then()
				})
			})
		})
	}

	// ---- Stage 1: minimum outgoing edge, known to all members. ----
	stage1 := func() {
		p.after(p.adjacent(kRoot, []int64{p.rootID}), func() {
			nbrRoot = p.nbrRoots(p.in, nil)
			p.after(p.upcast(p.minEdge(nbrRoot), mergeMinEdge), func() {
				agg := p.acc
				var down []int64
				if p.IsRoot() && agg != nil {
					down = []int64{agg[0], agg[1]}
				}
				p.after(p.downcast(down, nil), func() {
					dec := p.mine
					if dec != nil {
						chosenLo, chosenHi = dec[0], dec[1]
					}
					if chosenLo >= 0 {
						parentEdgePort = p.edgePort(chosenLo, chosenHi)
					}

					// Endpoint exchange: (rootID, chosenLo, chosenHi).
					p.after(p.adjacent(kRoot, []int64{p.rootID, chosenLo, chosenHi}), func() {
						in := p.in
						nbrChosen = map[int][2]int64{}
						for _, m := range in {
							f := m.Msg.(opMsg).F
							nbrChosen[m.Port] = [2]int64{f[1], f[2]}
						}
						// childPorts: ports whose neighbor fragment chose the edge to us.
						childPorts = []int{}
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
						stage2a()
					})
				})
			})
		})
	}

	// ---- Stage 2a: identify the supergraph-tree root fragment. ----
	stage2a = func() {
		var mutual []int64 // [otherRootID]
		if parentEdgePort >= 0 {
			if ch, ok := nbrChosen[parentEdgePort]; ok && ch == [2]int64{chosenLo, chosenHi} {
				mutual = []int64{nbrRoot[p.activeIndex(parentEdgePort)]}
			}
		}
		p.after(p.upcast(mutual, mergeFirst), func() {
			aggMut := p.acc
			var tFlag []int64
			if p.IsRoot() {
				isTR := int64(0)
				if chosenLo < 0 {
					isTR = 1 // no outgoing edge: fragment is alone, trivially root
				} else if aggMut != nil && p.rootID < aggMut[0] {
					isTR = 1
				}
				tFlag = []int64{isTR}
			}
			p.after(p.downcast(tFlag, nil), func() {
				flag := p.mine
				isTRoot = flag != nil && flag[0] == 1
				stage2c()
			})
		})
	}

	// ---- Stage 2c: Cole–Vishkin 6-coloring of fragments. ----
	stage2c = func() {
		color = p.rootID
		var cv, recolor func(int)
		cv = func(it int) {
			if it == cvIterations {
				recolor(0)
				return
			}
			colorStep(func(cur, pc, _ int64) int64 { return cvStep(cur, pc) }, func() { cv(it + 1) })
		}
		// Two shift-down + recolor passes eliminate colors 7 and 6.
		targets := []int64{7, 6}
		recolor = func(ti int) {
			if ti == len(targets) {
				// Distribute the final color.
				p.after(p.downcast(colorValIfRoot(&p.treeState, color), nil), func() {
					fin := p.mine
					if fin != nil {
						color = fin[0]
					}
					stage2d()
				})
				return
			}
			target := targets[ti]
			colorStep(func(cur, pc, _ int64) int64 {
				// Shift down: take the parent's color; the T-root picks a
				// fresh color from {0,1,2} different from its own.
				if isTRoot {
					return syntheticParent(cur)
				}
				return pc
			}, func() {
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
				}, func() { recolor(ti + 1) })
			})
		}
		cv(0)
	}

	// ---- Stage 2d: maximal matching of fragments along tree edges. ----
	stage2d = func() {
		matched = false
		fPorts = []int{} // my ports that carry F-edges (supergraph forest edges)
		var match func(ci int)
		match = func(ci int) {
			if ci == 6 {
				// Final matched-flag refresh.
				var mv []int64
				if p.IsRoot() {
					mv = []int64{b2i(matched)}
				}
				p.after(p.downcast(mv, nil), func() {
					d := p.mine
					if d != nil {
						matched = d[0] == 1
					}
					stage2e()
				})
				return
			}
			c := int64(ci)
			// m1: refresh members' matched flag.
			var mv []int64
			if p.IsRoot() {
				mv = []int64{b2i(matched)}
			}
			p.after(p.downcast(mv, nil), func() {
				d := p.mine
				if d != nil {
					matched = d[0] == 1
				}
				// m2: exchange (rootID, matched).
				p.after(p.adjacent(kRoot, []int64{p.rootID, b2i(matched)}), func() {
					ex := p.in
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
					p.after(p.upcast(own, mergeMinEdge), func() {
						aggE := p.acc
						// m4: downcast the chosen edge; choosing marks us matched.
						var pick []int64
						if p.IsRoot() && !matched && color == c && aggE != nil {
							pick = []int64{aggE[0], aggE[1]}
							matched = true
						}
						p.after(p.downcast(pick, nil), func() {
							d := p.mine
							pickPort := -1
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
							p.after(p.adjacentTargeted(pickPort, note), func() {
								got := p.got
								justMatched := -1
								for _, g := range got {
									if g == parentEdgePort {
										// Our parent matched us through our parent edge.
										justMatched = g
										fPorts = append(fPorts, g)
									}
								}
								// m6: the newly matched child fragment informs its root.
								var up []int64
								if justMatched >= 0 {
									up = []int64{1}
								}
								p.after(p.upcast(up, mergeFirst), func() {
									aggJ := p.acc
									if p.IsRoot() && aggJ != nil {
										matched = true
									}
									match(ci + 1)
								})
							})
						})
					})
				})
			})
		}
		match(0)
	}

	// ---- Stage 2e: unmatched non-root fragments attach to parent. ----
	stage2e = func() {
		var attach []int64
		attachPort := -1
		if !matched && !isTRoot && parentEdgePort >= 0 {
			attachPort = parentEdgePort
			attach = []int64{1}
			fPorts = append(fPorts, parentEdgePort)
		}
		p.after(p.adjacentTargeted(attachPort, attach), func() {
			got := p.got
			fPorts = append(fPorts, got...)
			stage2f()
		})
	}

	// ---- Stage 2f: an unmatched T-root attaches to one child. ----
	stage2f = func() {
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
		p.after(p.upcast(ownC, mergeMinEdge), func() {
			aggC2 := p.acc
			var pick2 []int64
			if p.IsRoot() && !matched && isTRoot && aggC2 != nil {
				pick2 = []int64{aggC2[0], aggC2[1]}
			}
			p.after(p.downcast(pick2, nil), func() {
				d2 := p.mine
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
				p.after(p.adjacentTargeted(pick2Port, note2), func() {
					got := p.got
					fPorts = append(fPorts, got...)
					stage3()
				})
			})
		})
	}

	// ---- Stage 3: merge each small-depth tree around its minimum
	// fragment ID. ----
	stage3 = func() {
		fSet := map[int]bool{}
		for _, q := range fPorts {
			fSet[q] = true
		}
		coreID := p.rootID
		var find, merge func(it int)
		find = func(it int) {
			if it == coreIters {
				merge(0)
				return
			}
			p.after(p.adjacent(kRoot, []int64{coreID}), func() {
				ex := p.in
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
				p.after(p.upcast(up, mergeMinVal), func() {
					aggM := p.acc
					var dn []int64
					if p.IsRoot() {
						c := coreID
						if aggM != nil && aggM[0] < c {
							c = aggM[0]
						}
						dn = []int64{c}
					}
					p.after(p.downcast(dn, nil), func() {
						d := p.mine
						if d != nil {
							coreID = d[0]
						}
						find(it + 1)
					})
				})
			})
		}
		merge = func(it int) {
			if it == coreIters {
				done()
				return
			}
			relabeled := p.rootID == coreID
			p.after(p.adjacent(kRoot, []int64{b2i(relabeled), coreID, int64(p.depth)}), func() {
				ex := p.in
				p.hasPend = false
				if !relabeled {
					for _, m := range ex {
						if !fSet[m.Port] {
							continue
						}
						f := m.Msg.(opMsg).F
						if f[0] == 1 && f[1] == coreID {
							p.pend = pending{
								rootID:   coreID,
								depth:    int(f[2]) + 1,
								parent:   m.Port,
								viaChild: -1,
							}
							p.hasPend = true
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
				p.after(p.upRelabel(), func() {
					p.after(p.downRelabel(), func() {
						if p.hasPend {
							p.applyPending(&p.pend, oldParent)
						}
						merge(it + 1)
					})
				})
			})
		}
		find(0)
	}

	stage1()
}
