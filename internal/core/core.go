// Package core implements Algorithm Awake-MIS (§6), the paper's main
// contribution: a randomized distributed MIS algorithm with
// O(log log n) worst-case awake complexity in SLEEPING-CONGEST
// (Theorem 13), plus the Corollary 14 variant, which runs on
// Appendix A's deterministic LDT construction and reproduces
// Corollary 14's O(log log n · log* n) awake bound. Against the
// randomized construction this pipeline uses, it saves no rounds.
//
// Every node picks a batch (i, j) ∈ [1,ℓ] × [1,2Δ′] — level i with
// probability ∝ c·2^i·log n / n (so batch-level populations double) and
// j uniform. Batches are processed in 2ℓΔ′ phases: the first round of
// each phase is a communication round in which exactly the nodes whose
// virtual-binary-tree communication set contains the phase index wake
// and exchange states (so any node attends O(log log n) communication
// rounds yet, by Observation 5, always learns about MIS neighbors from
// earlier batches in time); the rest of the phase is an LDT-MIS window
// in which the still-undecided nodes of that batch — whose induced
// subgraph is shattered into O(log n)-size components by Lemmas 2
// and 3 — compute an LFMIS with respect to a fresh random ordering.
package core

import (
	"context"
	"fmt"
	"math"

	"awakemis/internal/graph"
	"awakemis/internal/ldtmis"
	"awakemis/internal/sim"
)

// Params configures Awake-MIS. The proof constants of §6 (batch
// probability 10·2^i log n/n, Δ′ = 9 ln(n⁴), component bound
// 6 ln(n⁴)) are asymptotic; the defaults here preserve every
// high-probability argument at laptop sizes while keeping the
// simulation tractable. They scale the constants down: C1 = 4 instead
// of 10, Δ′ = ⌈6 ln N⌉ instead of 36 ln N, and a component bound of
// ⌈12 ln N⌉ instead of 24 ln N.
type Params struct {
	// C1 scales the batch-level probabilities (paper: 10).
	C1 float64 `json:"c1,omitempty"`
	// DeltaPrime is Δ′, the residual-degree bound; batches per level
	// number 2Δ′. Zero means ⌈6·ln N⌉.
	DeltaPrime int `json:"delta_prime,omitempty"`
	// NP is the component-size bound handed to LDT-MIS phases.
	// Zero means ⌈12·ln N⌉.
	NP int `json:"np,omitempty"`
	// Variant selects the LDT construction inside phases:
	// ldtmis.VariantAwake gives Theorem 13, ldtmis.VariantRound gives
	// Corollary 14.
	Variant ldtmis.Variant `json:"variant,omitempty"`
	// IDSpace is the random-ID space (paper: poly(N)). Zero means N³,
	// at least 2¹⁶, saturating at math.MaxInt64 from N = 2²¹ on.
	IDSpace int64 `json:"id_space,omitempty"`
}

// maxCubedN is the least N whose cube overflows int64: 2²¹, since
// (2²¹)³ = 2⁶³.
const maxCubedN = 1 << 21

// WithDefaults fills zero fields for a network bound N.
func (p Params) WithDefaults(n int) Params {
	if n < 2 {
		n = 2
	}
	ln := math.Log(float64(n))
	if p.C1 == 0 {
		p.C1 = 4
	}
	if p.DeltaPrime == 0 {
		p.DeltaPrime = int(math.Ceil(6 * ln))
	}
	if p.NP == 0 {
		p.NP = int(math.Ceil(12 * ln))
	}
	if p.IDSpace == 0 {
		// N³ passes int64's range from N = 2²¹ on, so the space
		// saturates there; Int63n(IDSpace)+1 still cannot wrap.
		p.IDSpace = math.MaxInt64
		if n < maxCubedN {
			nn := int64(n)
			p.IDSpace = max(nn*nn*nn, 1<<16)
		}
	}
	return p
}

// Check reports a field out of range. Zero fields mean their defaults;
// negative ones are errors, and so is a variant other than
// ldtmis.VariantAwake and ldtmis.VariantRound.
func (p Params) Check() error {
	switch {
	case !(p.C1 >= 0):
		return fmt.Errorf("c1 must be non-negative, got %v", p.C1)
	case p.DeltaPrime < 0:
		return fmt.Errorf("delta_prime must be non-negative, got %d", p.DeltaPrime)
	case p.NP < 0:
		return fmt.Errorf("np must be non-negative, got %d", p.NP)
	case p.IDSpace < 0:
		return fmt.Errorf("id_space must be non-negative, got %d", p.IDSpace)
	case p.Variant != ldtmis.VariantAwake && p.Variant != ldtmis.VariantRound:
		return fmt.Errorf("variant must be %d (awake) or %d (round), got %d",
			ldtmis.VariantAwake, ldtmis.VariantRound, p.Variant)
	}
	return nil
}

// ScheduleFits reports whether a run of params, which must pass Check,
// on the network bound n with the given bandwidth (zero: the default
// for n) has a timetable of at most sim.DefaultMaxRounds rounds. The
// arithmetic cannot overflow, whatever the params.
func ScheduleFits(n int, params Params, bandwidth int) bool {
	const limit = sim.DefaultMaxRounds
	n, bandwidth = resolve(n, bandwidth)
	p := params.WithDefaults(n)
	// Every phase outlasts its NP-round VT-MIS window, and there are at
	// least 2·DeltaPrime phases: bounding both first keeps the span
	// arithmetic far from int64's range.
	if int64(p.NP) >= limit || int64(p.DeltaPrime) > limit/2 {
		return false
	}
	if !ldtmis.SpanFits(p.NP, bandwidth, p.Variant, limit-1) {
		return false
	}
	s := NewSchedule(n, p, bandwidth)
	return int64(s.TotalPhases) <= limit/s.PhaseSpan
}

// resolve returns the network bound and bandwidth a run derives its
// timetable from: n is at least 2, and a zero bandwidth is the default
// for n.
func resolve(n, bandwidth int) (int, int) {
	n = max(n, 2)
	if bandwidth == 0 {
		bandwidth = sim.DefaultBandwidth(n)
	}
	return n, bandwidth
}

// Schedule is the deterministic phase timetable every node derives
// locally from (N, Params, bandwidth).
type Schedule struct {
	Levels      int   // ℓ
	BatchesPer  int   // 2Δ′
	TotalPhases int   // 2ℓΔ′
	PhaseSpan   int64 // 1 communication round + LDT-MIS window
	NP          int
	Variant     ldtmis.Variant
	cumProb     []float64 // cumProb[i-1] = P[level ≤ i]
}

// NewSchedule derives the timetable for a known bound n and bandwidth.
func NewSchedule(n int, params Params, bandwidth int) *Schedule {
	params = params.WithDefaults(n)
	ell := int(math.Ceil(math.Log2(float64(n)) - math.Log2(math.Log2(float64(max2(n, 4)))))) // ⌈log n − log log n⌉
	if ell < 1 {
		ell = 1
	}
	// Cumulative level probabilities F_i = min(1, C1·2^i·ln(n)/n);
	// levels past the cap would be empty, so the ladder truncates there.
	ln := math.Log(float64(n))
	cum := make([]float64, 0, ell)
	for i := 1; i <= ell; i++ {
		f := params.C1 * math.Pow(2, float64(i)) * ln / float64(n)
		if f >= 1 || i == ell {
			cum = append(cum, 1)
			break
		}
		cum = append(cum, f)
	}
	ell = len(cum)
	batches := 2 * params.DeltaPrime
	return &Schedule{
		Levels:      ell,
		BatchesPer:  batches,
		TotalPhases: ell * batches,
		PhaseSpan:   1 + ldtmis.Span(params.NP, bandwidth, params.Variant),
		NP:          params.NP,
		Variant:     params.Variant,
		cumProb:     cum,
	}
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PhaseStart returns the first simulator round of phase p ∈ [1, total].
func (s *Schedule) PhaseStart(p int) int64 { return int64(p-1) * s.PhaseSpan }

// TotalRounds returns the timetable's horizon.
func (s *Schedule) TotalRounds() int64 { return int64(s.TotalPhases) * s.PhaseSpan }

// SampleBatch draws a batch (level, j) using the node's randomness
// source via the two uniform variates u1, u2 ∈ [0,1).
func (s *Schedule) SampleBatch(u1, u2 float64) (level, j int) {
	level = s.Levels
	for i, f := range s.cumProb {
		if u1 < f {
			level = i + 1
			break
		}
	}
	j = 1 + int(u2*float64(s.BatchesPer))
	if j > s.BatchesPer {
		j = s.BatchesPer
	}
	return level, j
}

// Phase maps a batch to its phase index under the lexicographic order g.
func (s *Schedule) Phase(level, j int) int { return (level-1)*s.BatchesPer + j }

// Result collects the algorithm's output.
type Result struct {
	InMIS []bool
	// Batch[v] is the phase index node v drew (diagnostics).
	Batch []int
}

// RunContext executes Awake-MIS on g. Cancelling ctx aborts the
// simulation at the next round boundary.
func RunContext(ctx context.Context, g *graph.Graph, params Params, cfg sim.Config) (*Result, *sim.Metrics, error) {
	n := cfg.N
	if n == 0 {
		n = g.N()
	}
	n, cfg.Bandwidth = resolve(n, cfg.Bandwidth)
	params = params.WithDefaults(n)
	sched := NewSchedule(n, params, cfg.Bandwidth)
	res := &Result{InMIS: make([]bool, g.N()), Batch: make([]int, g.N())}
	m, err := sim.RunStepContext(ctx, g, StepProgram(res, sched, params, n), cfg)
	if err != nil {
		return nil, m, fmt.Errorf("core: %w", err)
	}
	return res, m, nil
}
