// Package study is the engine behind the declarative study subsystem:
// deterministic expansion of a parameter-sweep grid (the cross product
// of a study's axes), per-cell seed derivation through internal/rng,
// streaming aggregation of per-trial metric samples into summaries,
// growth-law fitting with bootstrap confidence intervals, and CSV
// rendering of the resulting tables.
//
// The package is deliberately unaware of tasks, graphs, and Reports —
// it works on axis indexes and float64 samples — so it sits below the
// public facade: the root package maps StudySpec/StudyResult onto it,
// and the service daemon reuses the exact same code path, which is
// what makes direct and daemon-served study artifacts byte-identical.
package study

import (
	"encoding/csv"
	"fmt"
	"strings"

	"awakemis/internal/rng"
	"awakemis/internal/stats"
)

// Grid is the shape of a study's cross-product expansion: the length
// of each axis plus the per-cell replication count. Cells enumerate in
// family-major order — families × tasks × sizes — and every cell
// expands into Trials specs, so spec i belongs to cell i/Trials, trial
// i%Trials.
type Grid struct {
	// Families, Tasks, Sizes are the axis lengths.
	Families, Tasks, Sizes int
	// Trials is the replication count per cell.
	Trials int
}

// Cells returns the number of aggregation cells.
func (g Grid) Cells() int { return g.Families * g.Tasks * g.Sizes }

// Specs returns the number of expanded specs (cells × trials).
func (g Grid) Specs() int { return g.Cells() * g.Trials }

// CellIndex maps axis indexes to the cell's position in enumeration
// order.
func (g Grid) CellIndex(family, task, size int) int {
	return (family*g.Tasks+task)*g.Sizes + size
}

// TrialSeed derives the run seed of one (family, n, trial) triple
// from the study's root seed via chained splitmix64 derivation. The
// derivation uses the family's key (its name plus explicit knobs) and
// the node count's value — never axis positions — so the same nominal
// cell derives the same seed in every study that contains it:
// overlapping grids share the daemon's report cache, and sweeps
// remain paired however their size lists are ordered or filtered. The
// task axis deliberately does not enter the derivation: every
// algorithm in a cell column runs on identical graphs, so cross-task
// comparisons (the paper's headline tables) are paired.
func (g Grid) TrialSeed(root int64, familyKey string, n, trial int) int64 {
	s := rng.Derive(root, "study-family/"+familyKey, 0)
	s = rng.Derive(s, "study-size", int64(n))
	return rng.Derive(s, "study-trial", int64(trial))
}

// GraphSeed derives the generator seed of one (family, n) cell
// column's shared graph. Like TrialSeed it hangs off the family key
// and node count only, but not the trial index: all R replications of
// a cell run on one identical graph (the paper's paired-seed design).
// The result is never zero — a zero GraphSpec seed means
// "derive from the run seed", which would silently un-pair the trials.
func (g Grid) GraphSeed(root int64, familyKey string, n int) int64 {
	s := rng.Derive(root, "study-family/"+familyKey, 0)
	s = rng.Derive(s, "study-size", int64(n))
	s = rng.Derive(s, "study-graph", 0)
	if s == 0 {
		s = 1
	}
	return s
}

// Aggregator folds per-trial metric samples into per-cell series as
// results stream in. Samples are stored indexed by trial, never in
// arrival order, so summaries — including floating-point sums — are
// identical whatever completion order a parallel executor produces.
// Reports themselves are never retained: callers extract the handful
// of float64 samples and drop the rest.
//
// Aggregator is not internally synchronized; callers that feed it
// from concurrent completions must serialize Add (the batch Runner's
// Progress callback already is).
type Aggregator struct {
	trials  int
	samples []map[string][]float64 // samples[cell][metric][trial]
	seen    []int                  // trials recorded per cell
}

// NewAggregator returns an empty aggregator for a grid of `cells`
// cells with `trials` replications each.
func NewAggregator(cells, trials int) *Aggregator {
	return &Aggregator{
		trials:  trials,
		samples: make([]map[string][]float64, cells),
		seen:    make([]int, cells),
	}
}

// AddTrial records one trial's metric samples for a cell. Adding the
// same (cell, trial) twice, an out-of-range index, or a metric set
// that differs between trials is a programming error and panics.
func (a *Aggregator) AddTrial(cell, trial int, values map[string]float64) {
	if cell < 0 || cell >= len(a.samples) || trial < 0 || trial >= a.trials {
		panic(fmt.Sprintf("study: AddTrial(%d, %d) outside %d cells × %d trials",
			cell, trial, len(a.samples), a.trials))
	}
	if a.samples[cell] == nil {
		a.samples[cell] = make(map[string][]float64, len(values))
	}
	for metric, v := range values {
		series := a.samples[cell][metric]
		if series == nil {
			if a.seen[cell] > 0 {
				panic(fmt.Sprintf("study: cell %d trial %d introduced metric %q absent from earlier trials", cell, trial, metric))
			}
			series = make([]float64, a.trials)
			a.samples[cell][metric] = series
		}
		series[trial] = v
	}
	if a.seen[cell] > 0 && len(values) != len(a.samples[cell]) {
		panic(fmt.Sprintf("study: cell %d trial %d recorded %d metrics, earlier trials recorded %d", cell, trial, len(values), len(a.samples[cell])))
	}
	a.seen[cell]++
	if a.seen[cell] > a.trials {
		panic(fmt.Sprintf("study: cell %d received %d trials, want %d", cell, a.seen[cell], a.trials))
	}
}

// Complete reports whether every trial of the cell has been recorded.
func (a *Aggregator) Complete(cell int) bool { return a.seen[cell] == a.trials }

// Summary folds one cell metric's trial samples into a stats.Summary.
// The cell must be complete.
func (a *Aggregator) Summary(cell int, metric string) stats.Summary {
	if !a.Complete(cell) {
		panic(fmt.Sprintf("study: Summary(%d, %q) before the cell completed", cell, metric))
	}
	return stats.Summarize(a.samples[cell][metric])
}

// Mean returns one cell metric's trial mean (the y value growth fits
// consume). The cell must be complete.
func (a *Aggregator) Mean(cell int, metric string) float64 {
	return a.Summary(cell, metric).Mean
}

// Fit is one fitted growth law: the preferred model with its least
// squares parameters, the bootstrap confidence interval of its slope,
// and the comparison verdict against the runner-up model.
type Fit struct {
	// Model is the preferred growth model ("loglog n", "log n", ...).
	Model string
	// A, B, R2 are the least squares fit y ≈ A + B·f(x) and its R².
	A, B, R2 float64
	// BLo, BHi bound the slope B (95% percentile bootstrap).
	BLo, BHi float64
	// RunnerUp is the best competing model and Margin the R² gap to it
	// — small margins mean the sweep cannot separate the two models.
	RunnerUp string
	Margin   float64
}

// FitSeries fits ys over xs against every candidate growth model and
// returns the preferred fit with its bootstrap interval. Deterministic
// for equal inputs: the bootstrap RNG is seeded from the study seed by
// the caller.
func FitSeries(xs, ys []float64, resamples int, seed int64) Fit {
	v := stats.CompareGrowth(xs, ys)
	lo, hi := stats.BootstrapSlopeCI(xs, ys, v.Preferred.Model, resamples, seed)
	return Fit{
		Model: v.Preferred.Model,
		A:     v.Preferred.A, B: v.Preferred.B, R2: v.Preferred.R2,
		BLo: lo, BHi: hi,
		RunnerUp: v.RunnerUp.Model, Margin: v.Margin,
	}
}

// CSV renders a header and rows as RFC-4180 CSV with a trailing
// newline — the rendering both study artifact tables share.
func CSV(header []string, rows [][]string) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write(header)
	w.WriteAll(rows) // WriteAll flushes
	return b.String()
}
