package awakemis

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrInvalidSpec is wrapped by every Spec.Validate failure, so callers
// that accept specs from the outside (the service daemon, batch file
// loaders) can distinguish a malformed request from an execution
// failure with errors.Is.
var ErrInvalidSpec = errors.New("invalid spec")

// Validate checks the spec without running it: the task must be
// registered, the graph spec well-formed, and the options within
// range. Run and Runner.RunBatch validate every spec before
// spending a simulation on it, so a bad spec fails fast with a
// descriptive error (wrapping ErrInvalidSpec) instead of surfacing as
// a deep generator or engine failure.
func (s Spec) Validate() error {
	err := s.check()
	if err == nil {
		return nil
	}
	return fmt.Errorf("awakemis: %w %s: %s", ErrInvalidSpec, s.label(), err)
}

func (s Spec) check() error {
	if s.Task == "" {
		return fmt.Errorf("missing task (have %s)", strings.Join(TaskNames(), "|"))
	}
	if _, ok := TaskByName(s.Task); !ok {
		return fmt.Errorf("unknown task %q (have %s)", s.Task, strings.Join(TaskNames(), "|"))
	}
	if err := s.Graph.validate(); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	if err := s.Options.validate(); err != nil {
		return fmt.Errorf("options: %w", err)
	}
	return nil
}

// validate checks the graph spec against its family's constraints.
// Zero values are legal (they mean "family default"); negative or
// out-of-range values are not.
func (gs GraphSpec) validate() error {
	family := gs.Family
	if family == "" {
		family = "gnp"
	}
	known := false
	for _, f := range Families() {
		if strings.EqualFold(family, f) {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown graph family %q (have %s)", gs.Family, strings.Join(Families(), "|"))
	}
	if gs.N < 0 {
		return fmt.Errorf("family %q needs a non-negative node count, got n=%d (0 means the default, 1024)", family, gs.N)
	}
	if gs.P < 0 || gs.P > 1 || math.IsNaN(gs.P) {
		return fmt.Errorf("edge probability must be in [0, 1], got p=%v", gs.P)
	}
	if gs.Degree < 0 {
		return fmt.Errorf("degree must be non-negative, got degree=%d", gs.Degree)
	}
	if gs.Radius < 0 || math.IsNaN(gs.Radius) {
		return fmt.Errorf("radius must be non-negative, got radius=%v", gs.Radius)
	}
	if strings.EqualFold(family, "regular") {
		n, d := gs.N, gs.Degree
		if n == 0 {
			n = 1024
		}
		if d == 0 {
			d = 4
		}
		if d >= n {
			return fmt.Errorf("regular family needs degree < n, got degree=%d >= n=%d", d, n)
		}
	}
	return nil
}

// validate checks the run options: engine name, and non-negative
// resource knobs (zero always means "the default").
func (o Options) validate() error {
	if o.Engine != "" && o.Engine != EngineStepped {
		return fmt.Errorf("unknown engine %q (stepped is the only engine)", o.Engine)
	}
	if o.Workers < 0 {
		return fmt.Errorf("workers must be non-negative, got %d", o.Workers)
	}
	if o.N < 0 {
		return fmt.Errorf("the known network-size bound N must be non-negative, got %d", o.N)
	}
	if o.Bandwidth < 0 {
		return fmt.Errorf("bandwidth must be non-negative, got %d bits", o.Bandwidth)
	}
	if o.MaxRounds < 0 {
		return fmt.Errorf("max_rounds must be non-negative, got %d", o.MaxRounds)
	}
	return nil
}
