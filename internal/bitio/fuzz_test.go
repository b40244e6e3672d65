package bitio

import "testing"

// FuzzBitioRoundTrip decodes its input into (width, value) pairs: a
// width byte folded into [0, 64], then up to eight value bytes, big
// endian, masked to the width. Every pair of nonzero width goes through
// a Writer, and a Reader over the Writer's bytes must return each
// value in order, where a width-0 read must fail. At the end only the
// final byte's zero padding is left: a read of 1 to that many bits
// returns 0, and a read of 0 bits or past the end fails without
// consuming anything. A Reader over the raw input obeys the same rules
// for the decoded widths. No width in [0, 64] may panic. The seed
// corpus is in testdata/fuzz/FuzzBitioRoundTrip.
func FuzzBitioRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		type pair struct {
			width int
			v     uint64
		}
		var pairs []pair
		for rest := data; len(rest) > 0; {
			width := int(rest[0]) % 65
			k := min(8, len(rest)-1)
			var v uint64
			for _, b := range rest[1 : 1+k] {
				v = v<<8 | uint64(b)
			}
			rest = rest[1+k:]
			if width < 64 {
				v &= 1<<uint(width) - 1
			}
			pairs = append(pairs, pair{width, v})
		}

		var w Writer
		total := 0
		for _, p := range pairs {
			if p.width > 0 {
				w.WriteUint(p.v, p.width)
				total += p.width
			}
		}
		if w.Len() != total {
			t.Fatalf("Len = %d after writing %d bits", w.Len(), total)
		}
		buf := w.Bytes()
		if len(buf) != (total+7)/8 {
			t.Fatalf("Bytes is %d bytes long for %d bits", len(buf), total)
		}
		r := NewReader(buf)
		for i, p := range pairs {
			v, err := r.ReadUint(p.width)
			switch {
			case p.width == 0 && err == nil:
				t.Fatalf("pair %d: a width-0 read succeeded", i)
			case p.width > 0 && (err != nil || v != p.v):
				t.Fatalf("pair %d: ReadUint(%d) = %d, %v; want %d", i, p.width, v, err, p.v)
			}
		}
		if pad := r.Remaining(); pad != 8*len(buf)-total || pad >= 8 {
			t.Fatalf("Remaining = %d after every value, want the %d padding bits", pad, 8*len(buf)-total)
		}
		for width := 0; width <= 64; width++ {
			end := *r
			v, err := end.ReadUint(width)
			if fits := width > 0 && width <= r.Remaining(); fits != (err == nil) || fits && v != 0 {
				t.Fatalf("ReadUint(%d) with %d padding bits left = %d, %v", width, r.Remaining(), v, err)
			}
			if err != nil && end.Remaining() != r.Remaining() {
				t.Fatalf("a failed ReadUint(%d) consumed %d bits", width, r.Remaining()-end.Remaining())
			}
		}

		raw := NewReader(data)
		for i, p := range pairs {
			left := raw.Remaining()
			_, err := raw.ReadUint(p.width)
			if fits := p.width > 0 && p.width <= left; fits != (err == nil) {
				t.Fatalf("raw pair %d: ReadUint(%d) with %d bits left: err = %v", i, p.width, left, err)
			}
			if err != nil && raw.Remaining() != left {
				t.Fatalf("raw pair %d: a failed ReadUint(%d) consumed %d bits", i, p.width, left-raw.Remaining())
			}
		}
	})
}
