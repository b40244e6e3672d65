package ldt

// This file implements the post-construction LDT operations of §5.2 /
// Appendix A.3: ranking (each node learns its rank in a total order of
// the tree plus the exact tree size, Lemma 9) and chunked root
// broadcasts (Fragment-Broadcast generalized to multi-message payloads,
// used to ship the random permutation in LDT-MIS). Both cost O(1) awake
// rounds per window.

// SpanRank returns the rounds consumed by Rank.
func SpanRank(np int) int64 { return 2 * spanWindow(np) }

// Rank computes the node's rank in the in-order-style total ordering of
// Appendix A.3 (visit the lowest-port subtree, then the node, then the
// remaining subtrees) and the exact number of nodes in the LDT.
// Rank values are 1-based.
func (p *Proc) Rank() (rank, total int) {
	// Upcast subtree sizes.
	sizes, childSizes := p.upcast([]int64{1}, func(acc, in []int64) []int64 {
		return []int64{acc[0] + in[0]}
	})
	mySubtree := sizes[0]

	// Downcast (offset, total): a node receiving offset x is ranked
	// after x earlier nodes; its first child's subtree precedes it.
	first := int64(0)
	if len(p.children) > 0 {
		first = childSizes[p.children[0]][0]
	}
	var seed []int64
	if p.IsRoot() {
		seed = []int64{0, mySubtree}
	}
	perChild := func(mine []int64, port int) []int64 {
		x := mine[0]
		if port == p.children[0] {
			return []int64{x, mine[1]}
		}
		// Later subtrees follow the node itself.
		off := x + first + 1
		for _, q := range p.children[1:] {
			if q == port {
				break
			}
			off += childSizes[q][0]
		}
		return []int64{off, mine[1]}
	}
	got := p.downcast(seed, perChild)
	if got == nil {
		// Singleton LDT (no parent, no children): seed stands.
		got = []int64{0, mySubtree}
	}
	rank = int(got[0] + first + 1)
	total = int(got[1])
	return rank, total
}

// NumChunks returns how many chunk windows a payload of payloadBits
// needs when each message may carry at most chunkBits.
func NumChunks(payloadBits, chunkBits int) int {
	if payloadBits <= 0 {
		return 0
	}
	return (payloadBits + chunkBits - 1) / chunkBits
}

// SpanBroadcastChunks returns the rounds consumed by BroadcastChunks.
func SpanBroadcastChunks(np, numChunks int) int64 {
	return int64(numChunks) * spanWindow(np)
}

// bitAccum reassembles a bit stream delivered in chunks, zero-padded
// to whole bytes. The pure half of BroadcastChunks, shared verbatim by
// the goroutine and step forms (bit-identity depends on both packing
// identically).
type bitAccum struct {
	out  []byte
	bits int
}

func newBitAccum(payloadBits int) *bitAccum {
	return &bitAccum{out: make([]byte, 0, (payloadBits+7)/8)}
}

// append appends the first nbits bits of data.
func (a *bitAccum) append(data []byte, nbits int) { a.appendRange(data, 0, nbits) }

// appendRange appends bits [lo, hi) of data.
func (a *bitAccum) appendRange(data []byte, lo, hi int) {
	if lo >= hi {
		return
	}
	if a.bits%8 == 0 && lo%8 == 0 {
		// Byte-aligned on both sides: copy whole bytes, then the
		// masked head of the last partial one.
		n := hi - lo
		a.out = append(a.out, data[lo/8:lo/8+n/8]...)
		if r := n % 8; r > 0 {
			a.out = append(a.out, data[lo/8+n/8]&^(0xff>>uint(r)))
		}
		a.bits += n
		return
	}
	for i := lo; i < hi; i++ {
		bit := (data[i/8] >> (7 - uint(i%8))) & 1
		if a.bits%8 == 0 {
			a.out = append(a.out, 0)
		}
		a.out[len(a.out)-1] |= bit << (7 - uint(a.bits%8))
		a.bits++
	}
}

// chunkRange returns the payload bits [lo, hi) of chunk c; lo ≥ hi
// once the payload is exhausted.
func chunkRange(c, chunkBits, payloadBits int) (lo, hi int) {
	lo = c * chunkBits
	hi = lo + chunkBits
	if hi > payloadBits {
		hi = payloadBits
	}
	return lo, hi
}

// rootChunk cuts the root's c-th chunk out of the payload ("null"
// filler per §5.3 once the payload is exhausted).
func rootChunk(payload []byte, c, chunkBits, payloadBits int) *chunkMsg {
	if lo, hi := chunkRange(c, chunkBits, payloadBits); lo < hi {
		return &chunkMsg{Data: sliceBits(payload, lo, hi), NBits: hi - lo}
	}
	return &chunkMsg{NBits: 0}
}

// BroadcastChunks ships a root payload of payloadBits bits to every
// node in numChunks downcast windows of chunkBits bits each. The root
// supplies the payload; every node returns the reassembled payload
// bytes (zero-padded to whole bytes).
func (p *Proc) BroadcastChunks(payload []byte, payloadBits, chunkBits, numChunks int) []byte {
	acc := newBitAccum(payloadBits)
	for c := 0; c < numChunks; c++ {
		w := p.cur
		p.cur += spanWindow(p.np)
		var mine *chunkMsg
		if p.IsRoot() {
			mine = rootChunk(payload, c, chunkBits, payloadBits)
		} else {
			p.wake(w + int64(p.depth-1))
			for _, m := range p.ctx.Deliver() {
				if cm, ok := m.Msg.(chunkMsg); ok && m.Port == p.parentPort {
					cm := cm
					mine = &cm
				}
			}
		}
		if len(p.children) > 0 && mine != nil {
			p.wake(w + int64(p.depth))
			for _, q := range p.children {
				p.ctx.Send(q, *mine)
			}
			p.ctx.Deliver()
		}
		if mine != nil && mine.NBits > 0 {
			acc.append(mine.Data, mine.NBits)
		}
	}
	return acc.out
}

// sliceBits extracts bits [lo, hi) of data into a fresh byte slice.
func sliceBits(data []byte, lo, hi int) []byte {
	n := hi - lo
	out := make([]byte, (n+7)/8)
	if lo%8 == 0 {
		copy(out, data[lo/8:])
		if r := n % 8; r > 0 {
			out[len(out)-1] &^= 0xff >> uint(r)
		}
		return out
	}
	for i := 0; i < n; i++ {
		bit := (data[(lo+i)/8] >> (7 - uint((lo+i)%8))) & 1
		out[i/8] |= bit << (7 - uint(i%8))
	}
	return out
}
