package awakemis

import "context"

// RunOption configures Run. Options compose left to right.
type RunOption func(*runOptions)

type runOptions struct {
	observer RoundObserver
}

// WithObserver attaches a RoundObserver for this run without mutating
// the Spec. Local-only, like Options.Observer (which it overrides):
// never serialized, never affects results or report bytes.
func WithObserver(obs RoundObserver) RunOption {
	return func(ro *runOptions) { ro.observer = obs }
}

// Run builds the spec's graph and executes its task, returning the
// Report. It is the single spec-driven entry point: behavior beyond
// the plain run — an observer — is selected with functional options
// instead of more variants.
func Run(ctx context.Context, spec Spec, opts ...RunOption) (*Report, error) {
	var ro runOptions
	for _, opt := range opts {
		opt(&ro)
	}
	if ro.observer != nil {
		spec.Options.Observer = ro.observer
	}
	return runSpec(ctx, spec)
}
