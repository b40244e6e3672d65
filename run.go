package awakemis

import "context"

// RunOption configures Run. Options compose left to right.
type RunOption func(*runOptions)

type runOptions struct {
	workers  int
	observer RoundObserver
}

// WithWorkers sets an explicit stepped-engine worker-pool size that
// overrides Options.Workers without being recorded in the Report — the
// caller's share of a machine-wide budget. The Runner and the service
// daemon use it to divide one budget among concurrent runs while
// keeping reports bit-identical to standalone calls (worker counts
// never change results). Zero falls back to Options.Workers.
func WithWorkers(n int) RunOption {
	return func(ro *runOptions) { ro.workers = n }
}

// WithObserver attaches a RoundObserver for this run without mutating
// the Spec. Local-only, like Options.Observer (which it overrides):
// never serialized, never affects results or report bytes.
func WithObserver(obs RoundObserver) RunOption {
	return func(ro *runOptions) { ro.observer = obs }
}

// Run builds the spec's graph and executes its task, returning the
// Report. It is the single spec-driven entry point: behavior beyond
// the plain run — worker budgets, observers — is selected with
// functional options instead of more variants.
func Run(ctx context.Context, spec Spec, opts ...RunOption) (*Report, error) {
	var ro runOptions
	for _, opt := range opts {
		opt(&ro)
	}
	workers := ro.workers
	if workers == 0 {
		workers = spec.Options.Workers
	}
	if ro.observer != nil {
		spec.Options.Observer = ro.observer
	}
	return runSpec(ctx, spec, workers)
}
