package awakemis

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"awakemis/internal/rng"
)

// Progress reports batch completion; the Runner delivers one Progress
// per finished spec, serialized (never two callbacks at once).
type Progress struct {
	// Done of Total specs have finished (including failures).
	Done, Total int
	// Index is the finished spec's position in the batch.
	Index int
	// Spec is the finished spec.
	Spec Spec
	// Report is the spec's result, nil when it failed.
	Report *Report
	// Err is the spec's failure, nil when it succeeded.
	Err error
}

// Runner executes batches of Specs concurrently. The zero value is
// usable: one spec in flight per CPU and root seed 0. Each run sizes
// its engine's worker pool from GOMAXPROCS; Go's scheduler shares the
// CPUs among the runs in flight.
//
// Results are deterministic: a batch produces bit-identical Reports
// (up to WallMS) to running each resolved spec sequentially through
// Run, at every Parallel and GOMAXPROCS setting.
type Runner struct {
	// Parallel caps how many specs run concurrently (0 means one per
	// CPU).
	Parallel int
	// Seed resolves specs whose Options.Seed is zero: spec i runs with
	// DeriveSeed(Seed, "spec", i), so one root seed reproduces a whole
	// batch and specs never share RNG streams by accident.
	Seed int64
	// OnProgress, when non-nil, receives one callback per finished spec.
	OnProgress func(Progress)
}

// Resolve returns the spec as the Runner would run it at batch index
// i: a zero Options.Seed replaced by the derived per-spec seed.
// Run on the resolved spec reproduces the batch entry exactly.
func (r *Runner) Resolve(spec Spec, i int) Spec {
	if spec.Options.Seed == 0 {
		spec.Options.Seed = rng.Derive(r.Seed, "spec", int64(i))
	}
	return spec
}

// RunBatch executes every spec and returns one Report per spec, in
// spec order. Specs run concurrently (at most Parallel in flight) but
// independently: one spec's failure does not stop its siblings, and
// reports[i] is nil exactly when spec i failed. The returned error is
// nil when every spec succeeded, ctx.Err() when the batch was
// cancelled, and a summary error otherwise.
func (r *Runner) RunBatch(ctx context.Context, specs []Spec) ([]*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	resolved := make([]Spec, len(specs))
	for i, spec := range specs {
		resolved[i] = r.Resolve(spec, i)
	}
	reports, errs := runSpecs(ctx, resolved, r.Parallel, r.OnProgress)
	if err := ctx.Err(); err != nil {
		return reports, err
	}
	if failed, first := countFailed(errs); failed > 0 {
		return reports, fmt.Errorf("awakemis: %d of %d specs failed (first: %w)", failed, len(specs), first)
	}
	return reports, nil
}

// runSpecs runs every spec, at most parallel at once (0 means one per
// CPU). Each outcome goes to onDone, when non-nil, one call at a time.
// It returns the per-spec Reports and errors, in spec order.
func runSpecs(ctx context.Context, specs []Spec, parallel int, onDone func(Progress)) ([]*Report, []error) {
	if parallel <= 0 {
		parallel = runtime.NumCPU()
	}
	parallel = max(min(parallel, len(specs)), 1)

	reports := make([]*Report, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := specs[i]
			var rep *Report
			err := ctx.Err()
			if err == nil {
				select {
				case sem <- struct{}{}:
					rep, err = Run(ctx, spec)
					<-sem
				case <-ctx.Done():
					err = ctx.Err()
				}
			}
			reports[i], errs[i] = rep, err
			mu.Lock()
			done++
			if onDone != nil {
				onDone(Progress{
					Done: done, Total: len(specs),
					Index: i, Spec: spec, Report: rep, Err: err,
				})
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return reports, errs
}

// countFailed counts the non-nil errors and returns the first of them.
func countFailed(errs []error) (failed int, first error) {
	for _, err := range errs {
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return failed, first
}
