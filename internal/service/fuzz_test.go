package service_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"awakemis"
	"awakemis/internal/service"
)

// decodeStrict decodes one spec the way the daemon's POST /v1/jobs
// handler does: unknown fields are an error, trailing data is ignored.
func decodeStrict(data []byte) (awakemis.Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec awakemis.Spec
	err := dec.Decode(&spec)
	return spec, err
}

// FuzzCanonicalSpec checks the spec boundary of the daemon's report
// cache. For every decoded spec that Validate accepts, nothing panics,
// Canonicalize is idempotent, the canonical spec (the one the daemon
// runs) still validates, and the spec, its canonical form and that
// form after a JSON round trip all hash the same. The seed corpus is
// in testdata/fuzz/FuzzCanonicalSpec.
func FuzzCanonicalSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeStrict(data)
		if err != nil || spec.Validate() != nil {
			return
		}
		canon := service.Canonicalize(spec)
		if again := service.Canonicalize(canon); !reflect.DeepEqual(again, canon) {
			t.Fatalf("Canonicalize is not idempotent:\n%+v\n%+v", canon, again)
		}
		if err := canon.Validate(); err != nil {
			t.Fatalf("canonical form of a valid spec fails validation: %v\n%+v", err, canon)
		}
		hash := mustHash(t, spec)
		if h := mustHash(t, canon); h != hash {
			t.Fatalf("canonical form hashes %s, the spec %s", h, hash)
		}
		wire, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeStrict(wire)
		if err != nil {
			t.Fatalf("canonical spec does not decode: %v\n%s", err, wire)
		}
		if h := mustHash(t, back); h != hash {
			t.Fatalf("canonical spec hashes %s after a JSON round trip, %s before:\n%s", h, hash, wire)
		}
	})
}

func mustHash(t *testing.T, spec awakemis.Spec) string {
	t.Helper()
	h, err := service.Hash(spec)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
