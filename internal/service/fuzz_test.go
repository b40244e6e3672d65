package service_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"awakemis"
	"awakemis/internal/service"
)

// decodeStrict decodes one Spec or StudySpec the way the daemon's POST
// /v1/jobs and /v1/studies handlers do: unknown fields are an error,
// trailing data is ignored.
func decodeStrict[T any](data []byte) (T, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var v T
	err := dec.Decode(&v)
	return v, err
}

// FuzzCanonicalSpec checks the spec boundary of the daemon's report
// cache. For every decoded spec that Validate accepts, nothing panics,
// Canonicalize is idempotent, the canonical spec (the one the daemon
// runs) still validates, and the spec, its canonical form and that
// form after a JSON round trip all hash the same. The seed corpus is
// in testdata/fuzz/FuzzCanonicalSpec.
func FuzzCanonicalSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeStrict[awakemis.Spec](data)
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
		back, err := decodeStrict[awakemis.Spec](wire)
		if err != nil {
			t.Fatalf("canonical spec does not decode: %v\n%s", err, wire)
		}
		if h := mustHash(t, back); h != hash {
			t.Fatalf("canonical spec hashes %s after a JSON round trip, %s before:\n%s", h, hash, wire)
		}
	})
}

// studySpecCap mirrors the expansion cap that StudySpec.Validate
// enforces (maxStudySpecs in package awakemis).
const studySpecCap = 100_000

// fuzzMaxSpecs bounds the grids FuzzStudySpec expands, so that each
// exec stays fast: Validate expands every grid it accepts, about 2 µs
// per run.
const fuzzMaxSpecs = 4096

// FuzzStudySpec checks the daemon's POST /v1/studies boundary. Each
// input is decoded as the handler decodes it. A grid whose expansion,
// families × tasks × sizes × trials after defaults, passes the cap
// must fail Validate, which rejects it before expanding it. For every
// grid of at most fuzzMaxSpecs runs that Validate accepts, nothing
// panics, its engines name the stepped engine at most once, Resolved
// is idempotent, the resolved spec still validates, Specs holds
// len(Cells()) × Trials specs, no more than the cap, and every
// expanded spec validates. Grids between the two sizes are skipped.
// The seed corpus is in testdata/fuzz/FuzzStudySpec.
func FuzzStudySpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ss, err := decodeStrict[awakemis.StudySpec](data)
		if err != nil {
			return
		}
		runs := studyRuns(ss)
		if runs > studySpecCap {
			if ss.Validate() == nil {
				t.Fatalf("Validate accepts a study of more than %d runs:\n%+v", studySpecCap, ss)
			}
			return
		}
		if runs > fuzzMaxSpecs || ss.Validate() != nil {
			return
		}
		if len(ss.Engines) > 1 || len(ss.Engines) == 1 && ss.Engines[0] != "" && ss.Engines[0] != awakemis.EngineStepped {
			t.Fatalf("Validate accepts engines %q; only one \"\" or \"stepped\" entry is valid", ss.Engines)
		}
		r := ss.Resolved()
		if again := r.Resolved(); !reflect.DeepEqual(again, r) {
			t.Fatalf("Resolved is not idempotent:\n%+v\n%+v", r, again)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("resolved form of a valid study fails validation: %v\n%+v", err, r)
		}
		specs, cells := ss.Specs(), ss.Cells()
		if len(specs) != len(cells)*r.Trials || len(specs) > studySpecCap {
			t.Fatalf("study expands to %d specs over %d cells of %d trials (cap %d)", len(specs), len(cells), r.Trials, studySpecCap)
		}
		for i, spec := range specs {
			if err := spec.Validate(); err != nil {
				t.Fatalf("expanded spec %d of a valid study fails validation: %v\n%+v", i, err, spec)
			}
		}
	})
}

// studyRuns is the number of runs ss expands to after defaults, the
// product of its axis lengths and trial count, saturated just past
// studySpecCap. A study with no task or a negative trial count
// expands to none.
func studyRuns(ss awakemis.StudySpec) int64 {
	r := ss.Resolved()
	runs := int64(1)
	for _, axis := range []int{len(r.Families), len(r.Tasks), len(r.Sizes), r.Trials} {
		runs = min(runs*int64(max(min(axis, studySpecCap+1), 0)), studySpecCap+1)
	}
	return runs
}

func mustHash(t *testing.T, spec awakemis.Spec) string {
	t.Helper()
	h, err := service.Hash(spec)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
