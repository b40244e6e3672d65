package awakemis_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"awakemis"
	"awakemis/internal/core"
)

func TestSpecValidate(t *testing.T) {
	valid := awakemis.Spec{
		Task:    "awake-mis",
		Graph:   awakemis.GraphSpec{Family: "gnp", N: 64, P: 0.1},
		Options: awakemis.Options{Seed: 1},
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// Zero values mean "default" everywhere.
	if err := (awakemis.Spec{Task: "luby"}).Validate(); err != nil {
		t.Fatalf("all-defaults spec rejected: %v", err)
	}
	// The known network-size bound N may equal the node count.
	atBound := valid
	atBound.Options.N = 64
	if err := atBound.Validate(); err != nil {
		t.Fatalf("spec with N equal to its node count rejected: %v", err)
	}
	// Only the awake-mis tasks read Params; the others ignore them.
	ignored := awakemis.Spec{Task: "luby", Options: awakemis.Options{Params: core.Params{NP: -5, Variant: 9}}}
	if err := ignored.Validate(); err != nil {
		t.Fatalf("luby spec rejected for Params it ignores: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*awakemis.Spec)
		want string // substring of the error
	}{
		{"missing task", func(s *awakemis.Spec) { s.Task = "" }, "missing task"},
		{"unknown task", func(s *awakemis.Spec) { s.Task = "frobnicate" }, `unknown task "frobnicate"`},
		{"unknown family", func(s *awakemis.Spec) { s.Graph.Family = "moebius" }, "unknown graph family"},
		{"negative n", func(s *awakemis.Spec) { s.Graph.N = -5 }, "non-negative node count"},
		{"p too big", func(s *awakemis.Spec) { s.Graph.P = 1.5 }, "edge probability"},
		{"negative p", func(s *awakemis.Spec) { s.Graph.P = -0.1 }, "edge probability"},
		{"negative degree", func(s *awakemis.Spec) { s.Graph.Degree = -1 }, "degree must be non-negative"},
		{"negative radius", func(s *awakemis.Spec) { s.Graph.Radius = -0.2 }, "radius must be non-negative"},
		{"regular degree >= n", func(s *awakemis.Spec) {
			s.Graph = awakemis.GraphSpec{Family: "regular", N: 8, Degree: 8}
		}, "degree < n"},
		// K_46400 has 1,076,456,800 edges, past the CSR cap of 2³⁰−1:
		// validation must reject it before the generator panics.
		{"complete graph past the edge cap", func(s *awakemis.Spec) {
			s.Task = "luby"
			s.Graph = awakemis.GraphSpec{Family: "complete", N: 46400}
		}, "beyond the CSR cap"},
		{"n past int32 node ids", func(s *awakemis.Spec) {
			s.Graph = awakemis.GraphSpec{Family: "cycle", N: math.MaxInt32 + 1}
		}, "exceeds the int32 node ids"},
		{"unknown engine", func(s *awakemis.Spec) { s.Options.Engine = "quantum" }, `unknown engine "quantum"`},
		{"lockstep engine", func(s *awakemis.Spec) { s.Options.Engine = "lockstep" }, `unknown engine "lockstep" (stepped is the only engine)`},
		{"negative N bound", func(s *awakemis.Spec) { s.Options.N = -1 }, "network-size bound"},
		// Otherwise the spec would fail in the engine, as a job.
		{"N bound below node count", func(s *awakemis.Spec) { s.Options.N = 63 }, "N=63 is below the graph's 64 nodes"},
		{"negative bandwidth", func(s *awakemis.Spec) { s.Options.Bandwidth = -8 }, "bandwidth"},
		{"negative max rounds", func(s *awakemis.Spec) { s.Options.MaxRounds = -1 }, "max_rounds"},
		// Each of these used to validate and then fail as a job: a wake
		// before round 0, an Int63n panic, a vtree panic, MaxRounds, a
		// wake-round overflow. Variant 9 ran as variant 0 under another
		// hash.
		{"negative c1", func(s *awakemis.Spec) { s.Options.Params.C1 = -1 }, "c1 must be non-negative"},
		{"negative np", func(s *awakemis.Spec) { s.Options.Params.NP = -5 }, "np must be non-negative"},
		{"negative id space", func(s *awakemis.Spec) { s.Options.Params.IDSpace = -7 }, "id_space must be non-negative"},
		{"negative delta prime", func(s *awakemis.Spec) { s.Options.Params.DeltaPrime = -3 }, "delta_prime must be non-negative"},
		{"unknown variant", func(s *awakemis.Spec) { s.Options.Params.Variant = 9 }, "variant must be 0 (awake) or 1 (round), got 9"},
		{"unknown variant, round task", func(s *awakemis.Spec) {
			s.Task = "awake-mis-round"
			s.Options.Params.Variant = 9
		}, "variant must be"},
		{"delta prime past the round cap", func(s *awakemis.Spec) { s.Options.Params.DeltaPrime = 1 << 40 }, "spans more than 2^40 rounds"},
		{"np past the round cap", func(s *awakemis.Spec) { s.Options.Params.NP = 1e9 }, "spans more than 2^40 rounds"},
		{"np whose chunk span overflows int64", func(s *awakemis.Spec) {
			s.Options.Params.NP = 1 << 33
			s.Options.Bandwidth = 2
		}, "spans more than 2^40 rounds"},
		{"largest delta prime", func(s *awakemis.Spec) { s.Options.Params.DeltaPrime = math.MaxInt }, "spans more than 2^40 rounds"},
		{"round variant past the round cap", func(s *awakemis.Spec) {
			s.Task = "awake-mis-round"
			s.Options.Params.DeltaPrime = 1 << 28
		}, "spans more than 2^40 rounds"},
	}
	for _, tc := range cases {
		spec := valid
		tc.mut(&spec)
		err := spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the spec", tc.name)
			continue
		}
		if !errors.Is(err, awakemis.ErrInvalidSpec) {
			t.Errorf("%s: error does not wrap ErrInvalidSpec: %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// Run must reject malformed specs up front with ErrInvalidSpec (the
// service daemon's 400-vs-500 discrimination), not via a deep
// generator or engine failure.
func TestRunSpecValidates(t *testing.T) {
	ctx := context.Background()
	_, err := awakemis.Run(ctx, awakemis.Spec{Task: "no-such-task"})
	if !errors.Is(err, awakemis.ErrInvalidSpec) {
		t.Errorf("Run(unknown task) = %v, want ErrInvalidSpec", err)
	}
	_, err = awakemis.Run(ctx, awakemis.Spec{
		Task:  "luby",
		Graph: awakemis.GraphSpec{Family: "gnp", N: -3},
	})
	if !errors.Is(err, awakemis.ErrInvalidSpec) {
		t.Errorf("Run(negative n) = %v, want ErrInvalidSpec", err)
	}
}
