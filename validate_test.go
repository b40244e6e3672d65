package awakemis_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"awakemis"
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
		{"unknown engine", func(s *awakemis.Spec) { s.Options.Engine = "quantum" }, `unknown engine "quantum"`},
		{"lockstep engine", func(s *awakemis.Spec) { s.Options.Engine = "lockstep" }, `unknown engine "lockstep" (stepped is the only engine)`},
		{"negative workers", func(s *awakemis.Spec) { s.Options.Workers = -2 }, "workers must be non-negative"},
		{"negative N bound", func(s *awakemis.Spec) { s.Options.N = -1 }, "network-size bound"},
		{"negative bandwidth", func(s *awakemis.Spec) { s.Options.Bandwidth = -8 }, "bandwidth"},
		{"negative max rounds", func(s *awakemis.Spec) { s.Options.MaxRounds = -1 }, "max_rounds"},
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
