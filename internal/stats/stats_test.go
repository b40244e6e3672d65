package stats

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Median != 2.5 {
		t.Errorf("summary = %+v", s)
	}
	odd := Summarize([]float64{5, 1, 3})
	if odd.Median != 3 {
		t.Errorf("odd median = %v", odd.Median)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if q := Quantile(xs, 0.5); q != 50 {
		t.Errorf("median = %v", q)
	}
	if q := Quantile(xs, 0.9); q != 90 {
		t.Errorf("p90 = %v", q)
	}
	if q := Quantile(xs, 0); q != 10 {
		t.Errorf("p0 = %v", q)
	}
	if q := Quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
}

func TestFitModelLinear(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{3, 5, 7, 9, 11} // y = 1 + 2x
	a, b, r2 := FitModel(xs, ys, func(x float64) float64 { return x })
	if math.Abs(a-1) > 1e-9 || math.Abs(b-2) > 1e-9 || r2 < 0.999 {
		t.Errorf("fit = %v + %v·x, R²=%v", a, b, r2)
	}
}

func TestFitGrowthIdentifiesLog(t *testing.T) {
	xs := []float64{64, 256, 1024, 4096, 16384}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 5 + 3*math.Log2(x)
	}
	fit := FitGrowth(xs, ys)
	if fit.Model != "log n" {
		t.Errorf("model = %q, want log n (fit %+v)", fit.Model, fit)
	}
}

func TestFitGrowthIdentifiesLogLog(t *testing.T) {
	xs := []float64{64, 256, 1024, 4096, 16384, 65536}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 100 + 40*math.Log2(math.Log2(x))
	}
	fit := FitGrowth(xs, ys)
	if fit.Model != "loglog n" {
		t.Errorf("model = %q, want loglog n (fit %+v)", fit.Model, fit)
	}
}

func TestFitGrowthConstant(t *testing.T) {
	xs := []float64{10, 100, 1000}
	ys := []float64{7, 7, 7}
	fit := FitGrowth(xs, ys)
	if fit.R2 < 0.999 {
		t.Errorf("constant data should fit perfectly: %+v", fit)
	}
}

// synthetic builds ys = a + b·f(xs) plus a small deterministic wobble
// so fits are near-perfect but not degenerate.
func synthetic(xs []float64, a, b float64, f func(float64) float64) []float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		wobble := 0.01 * float64(i%3-1)
		ys[i] = a + b*f(x) + wobble
	}
	return ys
}

func TestCompareGrowthVerdicts(t *testing.T) {
	xs := []float64{64, 256, 1024, 4096, 16384, 65536}
	cases := []struct {
		model string
		f     func(float64) float64
	}{
		{"loglog n", func(x float64) float64 { return math.Log2(math.Log2(x)) }},
		{"log n", math.Log2},
		{"n", func(x float64) float64 { return x }},
	}
	for _, c := range cases {
		v := CompareGrowth(xs, synthetic(xs, 2, 3, c.f))
		if v.Preferred.Model != c.model {
			t.Errorf("%s data: preferred %q (verdict %+v)", c.model, v.Preferred.Model, v)
		}
		if v.RunnerUp.Model == c.model || v.RunnerUp.Model == "none" {
			t.Errorf("%s data: runner-up %q", c.model, v.RunnerUp.Model)
		}
		if v.Margin < 0 {
			t.Errorf("%s data: negative margin %v", c.model, v.Margin)
		}
		if v.Preferred.R2-v.RunnerUp.R2-v.Margin > 1e-12 {
			t.Errorf("%s data: margin %v inconsistent with R² gap", c.model, v.Margin)
		}
	}
}

func TestModelsAndModelFunc(t *testing.T) {
	if len(models) < 3 || models[0].name != "const" {
		t.Errorf("models = %v", models)
	}
	for _, m := range models {
		if _, ok := ModelFunc(m.name); !ok {
			t.Errorf("ModelFunc(%q) missing", m.name)
		}
	}
	if _, ok := ModelFunc("zipf"); ok {
		t.Error("ModelFunc accepted an unknown model")
	}
}

func TestBootstrapSlopeCI(t *testing.T) {
	xs := []float64{64, 256, 1024, 4096, 16384, 65536}
	ys := synthetic(xs, 2, 3, math.Log2)
	lo, hi := BootstrapSlopeCI(xs, ys, "log n", 300, 7)
	if !(lo <= 3 && 3 <= hi) {
		t.Errorf("CI [%v, %v] does not cover the true slope 3", lo, hi)
	}
	if hi-lo > 1 {
		t.Errorf("CI [%v, %v] is implausibly wide for near-noiseless data", lo, hi)
	}
	// Determinism: equal seeds give equal intervals; different seeds
	// may not (resampling differs).
	lo2, hi2 := BootstrapSlopeCI(xs, ys, "log n", 300, 7)
	if lo != lo2 || hi != hi2 {
		t.Errorf("bootstrap not deterministic: [%v, %v] vs [%v, %v]", lo, hi, lo2, hi2)
	}
}

func TestBootstrapSlopeCIDegenerate(t *testing.T) {
	// Two points: the CI degenerates to the point estimate.
	lo, hi := BootstrapSlopeCI([]float64{2, 4}, []float64{1, 2}, "n", 100, 1)
	if lo != hi {
		t.Errorf("two-point CI should be degenerate, got [%v, %v]", lo, hi)
	}
	// Unknown model: NaN.
	lo, hi = BootstrapSlopeCI([]float64{1, 2, 3}, []float64{1, 2, 3}, "zipf", 100, 1)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Errorf("unknown model CI = [%v, %v], want NaNs", lo, hi)
	}
}
