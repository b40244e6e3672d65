// Package bitio provides bit-level encoding helpers used to account for
// message sizes in the CONGEST model, where every message must fit in
// O(log n) bits. Algorithms build messages out of bounded integers; the
// helpers here compute exactly how many bits a message occupies so the
// simulator can enforce the bandwidth bound.
package bitio

import (
	"fmt"
	"math/bits"
)

// UintBits returns the number of bits needed to represent v,
// with UintBits(0) == 1 (a zero still occupies one bit on the wire).
func UintBits(v uint64) int {
	if v == 0 {
		return 1
	}
	return bits.Len64(v)
}

// IntBits returns the number of bits needed for a signed value using a
// sign bit plus magnitude encoding.
func IntBits(v int64) int {
	if v < 0 {
		v = -v
	}
	return 1 + UintBits(uint64(v))
}

// FieldBits returns the number of bits needed for a fixed-width field
// holding values in [0, max]. It is the width a receiver that knows max
// would allocate for the field.
func FieldBits(max uint64) int {
	return UintBits(max)
}

// Writer accumulates bits most-significant first. It is used both to
// serialize payload chunks (e.g. permutation broadcasts over an LDT) and
// to account for the exact number of bits a message occupies.
type Writer struct {
	words []uint64
	n     int // number of bits written
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.n }

// WriteUint appends the low "width" bits of v.
// It panics if v does not fit in width bits or width is out of range.
func (w *Writer) WriteUint(v uint64, width int) {
	if width <= 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if width < 64 && v >= 1<<uint(width) {
		panic(fmt.Sprintf("bitio: value %d does not fit in %d bits", v, width))
	}
	off := w.n % 64 // bits already used in the last word
	if off == 0 {
		w.words = append(w.words, 0)
	}
	free := 64 - off
	last := len(w.words) - 1
	if width <= free {
		w.words[last] |= v << uint(free-width)
	} else {
		// The high free bits end this word; the rest open the next.
		w.words[last] |= v >> uint(width-free)
		w.words = append(w.words, v<<uint(64-(width-free)))
	}
	w.n += width
}

// WriteZeros appends n zero bits. It panics if n is negative.
func (w *Writer) WriteZeros(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bitio: negative zero pad %d", n))
	}
	w.n += n
	// Bits past the old length are already zero, so only whole new
	// words need appending.
	for len(w.words) < (w.n+63)/64 {
		w.words = append(w.words, 0)
	}
}

// Grow reserves room for n more bits, so that writing them does not
// reallocate.
func (w *Writer) Grow(n int) {
	if need := (w.n + n + 63) / 64; need > cap(w.words) {
		words := make([]uint64, len(w.words), need)
		copy(words, w.words)
		w.words = words
	}
}

// WriteBool appends a single bit.
func (w *Writer) WriteBool(b bool) {
	v := uint64(0)
	if b {
		v = 1
	}
	w.WriteUint(v, 1)
}

// Bytes returns the written bits packed into a byte slice, zero padded
// in the final byte.
func (w *Writer) Bytes() []byte {
	out := make([]byte, (w.n+7)/8)
	for i := range out {
		word := w.words[i/8]
		shift := 56 - 8*uint(i%8)
		out[i] = byte(word >> shift)
	}
	return out
}

// Reader consumes bits most-significant first from a Writer's output.
type Reader struct {
	data []byte
	pos  int // bit position
}

// NewReader returns a Reader over the packed bits in data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Remaining reports how many bits are left, counting padding bits in the
// final byte (callers track their own logical length).
func (r *Reader) Remaining() int { return 8*len(r.data) - r.pos }

// ReadUint reads a fixed-width unsigned value.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width <= 0 || width > 64 {
		return 0, fmt.Errorf("bitio: invalid width %d", width)
	}
	if r.Remaining() < width {
		return 0, fmt.Errorf("bitio: short read: need %d bits, have %d", width, r.Remaining())
	}
	var v uint64
	for i := 0; i < width; i++ {
		b := r.data[r.pos/8]
		bit := (b >> (7 - uint(r.pos%8))) & 1
		v = v<<1 | uint64(bit)
		r.pos++
	}
	return v, nil
}

// ReadBool reads a single bit.
func (r *Reader) ReadBool() (bool, error) {
	v, err := r.ReadUint(1)
	return v == 1, err
}
