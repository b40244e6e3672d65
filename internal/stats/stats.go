// Package stats provides the small statistics toolkit the study
// subsystem uses: aggregation over repeated trials, quantiles, least
// squares fits against candidate growth models (log n, log log n, n)
// with bootstrap confidence intervals, and a fit-comparison verdict.
package stats

import (
	"math"
	"math/rand"
	"sort"
)

// Summary aggregates a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs (zero value for empty input).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Mean += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	for _, x := range xs {
		d := x - s.Mean
		s.Std += d * d
	}
	s.Std = math.Sqrt(s.Std / float64(len(xs)))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest-rank.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Fit is a least-squares fit y ≈ A + B·f(x).
type Fit struct {
	Model string
	A, B  float64
	R2    float64
}

// Model functions for FitGrowth.
var models = []struct {
	name string
	f    func(x float64) float64
}{
	{"const", func(x float64) float64 { return 0 }},
	{"loglog n", func(x float64) float64 { return math.Log2(math.Max(2, math.Log2(math.Max(2, x)))) }},
	{"log n", func(x float64) float64 { return math.Log2(math.Max(2, x)) }},
	{"sqrt n", math.Sqrt},
	{"n", func(x float64) float64 { return x }},
}

// FitModel fits y ≈ A + B·f(x) for one transform and returns (A, B, R²).
func FitModel(xs, ys []float64, f func(float64) float64) (a, b, r2 float64) {
	n := float64(len(xs))
	if n < 2 {
		if len(ys) == 1 {
			return ys[0], 0, 1
		}
		return 0, 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		t := f(xs[i])
		sx += t
		sy += ys[i]
		sxx += t * t
		sxy += t * ys[i]
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		// Degenerate transform (constant): best fit is the mean.
		return sy / n, 0, r2For(xs, ys, func(x float64) float64 { return sy / n })
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	fit := func(x float64) float64 { return a + b*f(x) }
	return a, b, r2For(xs, ys, fit)
}

func r2For(xs, ys []float64, fit func(float64) float64) float64 {
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	var ssTot, ssRes float64
	for i := range ys {
		ssTot += (ys[i] - mean) * (ys[i] - mean)
		d := ys[i] - fit(xs[i])
		ssRes += d * d
	}
	if ssTot < 1e-12 {
		if ssRes < 1e-9 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// FitGrowth fits every candidate growth model and returns the best fit
// by R² (ties favor the slower-growing model, matching how complexity
// claims are judged).
func FitGrowth(xs, ys []float64) Fit {
	best := Fit{Model: "none", R2: math.Inf(-1)}
	for _, m := range models {
		a, b, r2 := FitModel(xs, ys, m.f)
		if r2 > best.R2+1e-9 {
			best = Fit{Model: m.name, A: a, B: b, R2: r2}
		}
	}
	return best
}

// ModelFunc returns the transform f of a named model (y ≈ A + B·f(x)).
func ModelFunc(name string) (func(float64) float64, bool) {
	for _, m := range models {
		if m.name == name {
			return m.f, true
		}
	}
	return nil, false
}

// Verdict is the outcome of comparing every candidate growth model on
// one series: the preferred fit, the best competing fit, and the R²
// margin separating them. A small margin means the data cannot
// distinguish the two models over the sampled range — the honest
// reading of laptop-scale sweeps of slowly diverging functions.
type Verdict struct {
	// Preferred is the winning fit (FitGrowth's choice: best R², ties
	// to the slower-growing model).
	Preferred Fit
	// RunnerUp is the best fit among the other models.
	RunnerUp Fit
	// Margin is Preferred.R2 - RunnerUp.R2 (≥ ~0 by construction).
	Margin float64
}

// CompareGrowth fits every candidate model and returns the verdict.
func CompareGrowth(xs, ys []float64) Verdict {
	best := FitGrowth(xs, ys)
	runner := Fit{Model: "none", R2: math.Inf(-1)}
	for _, m := range models {
		if m.name == best.Model {
			continue
		}
		a, b, r2 := FitModel(xs, ys, m.f)
		if r2 > runner.R2+1e-9 {
			runner = Fit{Model: m.name, A: a, B: b, R2: r2}
		}
	}
	margin := best.R2 - runner.R2
	if math.IsInf(runner.R2, -1) {
		margin = 0
	}
	return Verdict{Preferred: best, RunnerUp: runner, Margin: margin}
}

// BootstrapSlopeCI returns a percentile-bootstrap 95% confidence
// interval for the slope B of the named model: the series is resampled
// with replacement `resamples` times (default 200 when ≤ 0), each
// resample is refit, and the 2.5%/97.5% quantiles of the slope
// estimates are returned. The resampling RNG is seeded explicitly, so
// equal inputs always produce equal intervals — the determinism the
// study artifact format relies on. Series with fewer than three
// points return a degenerate [B, B] interval.
func BootstrapSlopeCI(xs, ys []float64, model string, resamples int, seed int64) (lo, hi float64) {
	f, ok := ModelFunc(model)
	if !ok || len(xs) != len(ys) || len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	if len(xs) < 3 {
		_, b, _ := FitModel(xs, ys, f)
		return b, b
	}
	if resamples <= 0 {
		resamples = 200
	}
	r := rand.New(rand.NewSource(seed))
	slopes := make([]float64, resamples)
	bx := make([]float64, len(xs))
	by := make([]float64, len(ys))
	for i := range slopes {
		for j := range bx {
			k := r.Intn(len(xs))
			bx[j], by[j] = xs[k], ys[k]
		}
		_, b, _ := FitModel(bx, by, f)
		slopes[i] = b
	}
	return Quantile(slopes, 0.025), Quantile(slopes, 0.975)
}
