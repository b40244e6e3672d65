package ldt

// This file implements the post-construction LDT operations of §5.2 /
// Appendix A.3: ranking (each node learns its rank in a total order of
// the tree plus the exact tree size, Lemma 9) and chunked root
// broadcasts (Fragment-Broadcast generalized to multi-message payloads,
// used to ship the random permutation in LDT-MIS). Both cost O(1) awake
// rounds per window.

// SpanRank returns the rounds consumed by Rank.
func SpanRank(np int) int64 { return 2 * spanWindow(np) }

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
// to whole bytes: the pure half of BroadcastChunks.
type bitAccum struct {
	out  []byte
	bits int
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
