package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// FuzzReadRecord checks the store's record decoder, which reads bytes a
// crash, a full disk or bit rot may have left on disk. Every input
// either fails, and so reads as a miss, or yields a payload whose
// length and SHA-256 equal the record header's; that payload encodes
// to a record that decodes back to it. The seed corpus is in
// testdata/fuzz/FuzzReadRecord: a valid record, a truncated one, wrong
// magic, a bad length, a flipped payload bit, and trailing bytes.
func FuzzReadRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := decodeRecord(data)
		if err != nil {
			if err != errCorrupt {
				t.Fatalf("decodeRecord failed with %v, want errCorrupt", err)
			}
			return
		}
		sum := sha256.Sum256(payload)
		if !bytes.Equal(sum[:], data[len(magic):len(magic)+sha256.Size]) {
			t.Fatal("decoded payload does not match the header's SHA-256")
		}
		if n := binary.BigEndian.Uint64(data[len(magic)+sha256.Size : headerLen]); uint64(len(payload)) != n {
			t.Fatalf("decoded %d payload bytes, header says %d", len(payload), n)
		}
		record, err := encodeRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeRecord(record)
		if err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("re-encoded payload decodes to %d bytes, err %v; want the %d-byte payload", len(back), err, len(payload))
		}
	})
}
