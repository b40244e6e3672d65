package bitio

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUintBits(t *testing.T) {
	tests := []struct {
		v    uint64
		want int
	}{
		{0, 1},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{63, 6},
		{64, 7},
		{255, 8},
		{256, 9},
		{1<<63 - 1, 63},
		{1 << 63, 64},
	}
	for _, tt := range tests {
		if got := UintBits(tt.v); got != tt.want {
			t.Errorf("UintBits(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestIntBits(t *testing.T) {
	tests := []struct {
		v    int64
		want int
	}{
		{0, 2},
		{1, 2},
		{-1, 2},
		{2, 3},
		{-255, 9},
	}
	for _, tt := range tests {
		if got := IntBits(tt.v); got != tt.want {
			t.Errorf("IntBits(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var w Writer
	w.WriteUint(5, 3)
	w.WriteUint(1, 1)
	w.WriteUint(1023, 10)
	w.WriteUint(0, 1)
	if w.Len() != 15 {
		t.Fatalf("Len = %d, want 15", w.Len())
	}

	r := NewReader(w.Bytes())
	if v, err := r.ReadUint(3); err != nil || v != 5 {
		t.Errorf("ReadUint(3) = %d, %v; want 5", v, err)
	}
	if b, err := r.ReadUint(1); err != nil || b != 1 {
		t.Errorf("ReadUint(1) = %d, %v; want 1", b, err)
	}
	if v, err := r.ReadUint(10); err != nil || v != 1023 {
		t.Errorf("ReadUint(10) = %d, %v; want 1023", v, err)
	}
	if b, err := r.ReadUint(1); err != nil || b != 0 {
		t.Errorf("ReadUint(1) = %d, %v; want 0", b, err)
	}
}

func TestWriterPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for value exceeding width")
		}
	}()
	var w Writer
	w.WriteUint(8, 3)
}

func TestWriterPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width 0")
		}
	}()
	var w Writer
	w.WriteUint(0, 0)
}

func TestReaderShortRead(t *testing.T) {
	r := NewReader([]byte{0xff})
	if _, err := r.ReadUint(9); err == nil {
		t.Fatal("expected short-read error")
	}
}

func TestReaderBadWidth(t *testing.T) {
	r := NewReader([]byte{0xff})
	if _, err := r.ReadUint(65); err == nil {
		t.Fatal("expected error for width 65")
	}
}

// Property: any sequence of (value, width) pairs round-trips.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count%32) + 1
		widths := make([]int, n)
		vals := make([]uint64, n)
		var w Writer
		for i := 0; i < n; i++ {
			widths[i] = rng.Intn(64) + 1
			if widths[i] == 64 {
				vals[i] = rng.Uint64()
			} else {
				vals[i] = rng.Uint64() & (1<<uint(widths[i]) - 1)
			}
			w.WriteUint(vals[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := 0; i < n; i++ {
			v, err := r.ReadUint(widths[i])
			if err != nil || v != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: UintBits(v) bits always suffice to encode v.
func TestQuickUintBitsSufficient(t *testing.T) {
	f := func(v uint64) bool {
		w := UintBits(v)
		var wr Writer
		wr.WriteUint(v, w)
		r := NewReader(wr.Bytes())
		got, err := r.ReadUint(w)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// bitWriter is the bit-at-a-time reference the word-level Writer must
// match byte for byte.
type bitWriter struct {
	bits []byte // one 0/1 entry per written bit
}

func (b *bitWriter) writeUint(v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		b.bits = append(b.bits, byte(v>>uint(i)&1))
	}
}

func (b *bitWriter) bytes() []byte {
	out := make([]byte, (len(b.bits)+7)/8)
	for i, bit := range b.bits {
		out[i/8] |= bit << (7 - uint(i%8))
	}
	return out
}

// Randomized equivalence: any interleaving of WriteUint, WriteZeros and
// Grow produces exactly the bytes the bit-at-a-time reference does.
func TestWriterMatchesBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		var w Writer
		var ref bitWriter
		for op := rng.Intn(40); op >= 0; op-- {
			switch rng.Intn(6) {
			case 0:
				n := rng.Intn(200)
				w.WriteZeros(n)
				ref.bits = append(ref.bits, make([]byte, n)...)
			case 1:
				w.Grow(rng.Intn(300))
			default:
				width := rng.Intn(64) + 1
				v := rng.Uint64()
				if width < 64 {
					v &= 1<<uint(width) - 1
				}
				w.WriteUint(v, width)
				ref.writeUint(v, width)
			}
			if w.Len() != len(ref.bits) {
				t.Fatalf("trial %d: Len = %d, want %d", trial, w.Len(), len(ref.bits))
			}
		}
		if got, want := w.Bytes(), ref.bytes(); string(got) != string(want) {
			t.Fatalf("trial %d: bytes\n%x\nwant\n%x", trial, got, want)
		}
	}
}

func TestWriterPanicsOnNegativePad(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a negative pad")
		}
	}()
	var w Writer
	w.WriteZeros(-1)
}
