// Package awakemis is a Go implementation of
//
//	Dufoulon, Moses Jr., Pandurangan.
//	"Distributed MIS in O(log log n) Awake Complexity." PODC 2023.
//
// It provides the paper's main algorithm — a randomized distributed
// maximal-independent-set algorithm whose worst-case awake complexity
// (the number of rounds any node must keep its radio on) is
// O(log log n) — together with the full stack it is built on: a
// SLEEPING-CONGEST network simulator, the virtual-binary-tree
// coordination technique, labeled distance trees, the auxiliary
// algorithms VT-MIS and LDT-MIS, the classical baselines the paper
// compares against, and the §7 extensions to (Δ+1)-coloring and
// maximal matching.
//
// Every problem is a registered Task; runs produce a machine-readable
// Report, and a Runner executes batches of Specs concurrently with
// deterministic seed derivation. Quick start:
//
//	g := awakemis.GNP(1024, 0.004, 1)
//	rep, err := awakemis.RunTask(g, "awake-mis", awakemis.Options{Seed: 1})
//	// rep.Output.InMIS is a verified MIS; rep.Metrics.MaxAwake is
//	// O(log log n); rep.JSON() is the wire form.
//
// Spec-driven execution goes through the single entry point
// Run(ctx, spec); Options.Observer attaches a per-round observer. A
// study runs each trial of a cell as one such run. RunMIS returns the
// typed MIS view.
//
// No setting here sizes the simulator's worker pool: the engine reads
// runtime.GOMAXPROCS(0) at the start of each run, and Reports are
// bit-identical at every pool size. Runner.Parallel and
// StudyRunner.Parallel bound how many runs are in flight.
package awakemis

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"awakemis/internal/core"
	"awakemis/internal/rng"
	"awakemis/internal/sim"
)

// Algorithm selects a distributed MIS algorithm (a Task name; Run
// accepts exactly the tasks that produce an MIS).
type Algorithm string

const (
	// AwakeMIS is the paper's main contribution (Theorem 13):
	// O(log log n) awake complexity.
	AwakeMIS Algorithm = "awake-mis"
	// AwakeMISRound is the Corollary 14 variant built on the
	// deterministic LDT construction.
	AwakeMISRound Algorithm = "awake-mis-round"
	// Luby is the classical O(log n)-round, O(log n)-awake baseline.
	Luby Algorithm = "luby"
	// NaiveGreedy is the O(I)-awake naive distributed sequential greedy
	// (§5.3), with IDs assigned as a random permutation of [1, n].
	NaiveGreedy Algorithm = "naive-greedy"
	// VTMIS is Algorithm VT-MIS (Lemma 10): O(log I) awake via the
	// virtual binary tree, with IDs a random permutation of [1, n].
	VTMIS Algorithm = "vt-mis"
	// LDTMIS is Algorithm LDT-MIS (Lemma 11): O(log n′) awake via
	// labeled distance trees, with IDs from a 2⁴⁰ space.
	LDTMIS Algorithm = "ldt-mis"
)

// Task names for the §7 extensions (run them with RunTask or Run).
const (
	// TaskColoring is greedy (Δ+1)-coloring in O(log n) awake rounds.
	TaskColoring = "coloring"
	// TaskMatching is maximal matching with early-exit awake complexity.
	TaskMatching = "matching"
)

// Algorithms lists every MIS algorithm (the tasks Run accepts). See
// Tasks for the full registry including coloring and matching.
func Algorithms() []Algorithm {
	return []Algorithm{AwakeMIS, AwakeMISRound, Luby, NaiveGreedy, VTMIS, LDTMIS}
}

// Engine names the simulation runtime (see internal/sim). The stepped
// engine, which keeps node state inline and shards step calls across a
// worker pool of GOMAXPROCS goroutines, is the only one; the name
// stays on the wire so specs, Reports and study artifacts record it.
type Engine string

// EngineStepped is the stepped engine, the only engine.
const EngineStepped Engine = "stepped"

// Options configures a run. The zero value is usable, and the struct
// marshals to/from JSON for batch spec files.
type Options struct {
	// Seed drives all randomness; equal seeds replay identical runs at
	// every GOMAXPROCS setting. Every derived stream (per-node
	// randomness, ID permutations, edge orders) comes from this seed
	// through the centralized splitmix64 deriver (see DeriveSeed).
	Seed int64 `json:"seed,omitempty"`
	// Engine names the runtime engine: "" or EngineStepped.
	Engine Engine `json:"engine,omitempty"`
	// N is the common polynomial upper bound on the network size known
	// to nodes (the paper's N). Zero means the exact node count.
	N int `json:"n,omitempty"`
	// Bandwidth overrides the CONGEST per-message bit budget
	// (default 16·⌈log₂ N⌉ + 16).
	Bandwidth int `json:"bandwidth,omitempty"`
	// Strict makes any message exceeding Bandwidth a run error.
	Strict bool `json:"strict,omitempty"`
	// MaxRounds aborts runaway schedules (default 2⁴⁰ rounds).
	MaxRounds int64 `json:"max_rounds,omitempty"`
	// Params tunes Awake-MIS constants (ignored by other tasks);
	// zero fields take paper-faithful defaults. Validate rejects
	// negative fields, an unknown variant, and constants whose
	// timetable would outlast the default 2⁴⁰-round cap.
	Params core.Params `json:"params,omitempty"`
	// Trace records per-node awake timelines and message-loss counters,
	// exposed through Report.Timeline and Report.TraceSummary. The
	// recorded node set is sampled (first trace.MaxNodes ids) so
	// tracing stays bounded on million-node graphs.
	Trace bool `json:"trace,omitempty"`
	// RoundSummary embeds the compact, deterministic per-round block in
	// the Report (Report.RoundSummary). Unlike Trace it affects report
	// bytes, so it participates in spec canonicalization and caching.
	RoundSummary bool `json:"round_summary,omitempty"`
	// Observer, if non-nil, receives one RoundStat per executed round.
	// Local-only: it is never serialized and never affects results or
	// report bytes.
	Observer RoundObserver `json:"-"`
}

// simConfig resolves the options into an engine configuration.
func (o Options) simConfig() sim.Config {
	return sim.Config{
		Seed:      o.Seed,
		N:         o.N,
		Bandwidth: o.Bandwidth,
		Strict:    o.Strict,
		MaxRounds: o.MaxRounds,
	}
}

// Metrics reports the complexity measures of a run (§1.3–1.4).
type Metrics struct {
	// Rounds is the round complexity (sleeping rounds included).
	Rounds int64 `json:"rounds"`
	// ExecutedRounds is the number of rounds with at least one awake node.
	ExecutedRounds int64 `json:"executed_rounds"`
	// MaxAwake is the worst-case awake complexity max_v A_v.
	MaxAwake int64 `json:"max_awake"`
	// AvgAwake is the node-averaged awake complexity.
	AvgAwake float64 `json:"avg_awake"`
	// AwakeQuantiles is the compact wire summary of the per-node awake
	// distribution — what studies aggregate now that AwakePerNode never
	// reaches the wire.
	AwakeQuantiles AwakeQuantiles `json:"awake_quantiles"`
	// AwakePerNode is A_v for every node (elided from JSON; reports stay
	// compact at million-node scale — see AwakeQuantiles for the wire
	// summary).
	AwakePerNode []int64 `json:"-"`
	// MessagesSent and BitsSent measure communication volume.
	MessagesSent int64 `json:"messages_sent"`
	BitsSent     int64 `json:"bits_sent"`
	// MaxMessageBits is the largest message observed.
	MaxMessageBits int `json:"max_message_bits"`
}

// AwakeQuantiles summarizes the distribution of per-node awake rounds
// as nearest-rank quantiles: sorted[⌈q·n⌉-1]. Min is the best-off
// node; MaxAwake (the paper's headline measure) is the p100 and lives
// on Metrics directly.
type AwakeQuantiles struct {
	Min int64 `json:"min"`
	P25 int64 `json:"p25"`
	P50 int64 `json:"p50"`
	P75 int64 `json:"p75"`
	P90 int64 `json:"p90"`
	P99 int64 `json:"p99"`
}

// awakeQuantiles folds per-node awake counters, each in [0, maxAwake],
// into their wire summary: nearest-rank quantiles of the sorted
// counters, read off a histogram of their values instead of a sorted
// copy. The histogram has maxAwake+1 buckets, and maxAwake is at most
// the run's executed rounds.
func awakeQuantiles(per []int64, maxAwake int64) AwakeQuantiles {
	if len(per) == 0 {
		return AwakeQuantiles{}
	}
	hist := make([]int, maxAwake+1)
	for _, a := range per {
		hist[a]++
	}
	ps := [...]float64{0, 0.25, 0.50, 0.75, 0.90, 0.99}
	var q [len(ps)]int64
	v, atMost := int64(0), hist[0] // atMost counts the counters ≤ v
	for i, p := range ps {
		idx := max(int(math.Ceil(p*float64(len(per))))-1, 0)
		for atMost <= idx {
			v++
			atMost += hist[v]
		}
		q[i] = v
	}
	return AwakeQuantiles{Min: q[0], P25: q[1], P50: q[2], P75: q[3], P90: q[4], P99: q[5]}
}

// fromSim converts a finished run's engine metrics. The Report takes
// over m.AwakePerNode, which the engine no longer touches.
func fromSim(m *sim.Metrics) Metrics {
	return Metrics{
		Rounds:         m.Rounds,
		ExecutedRounds: m.ExecutedRounds,
		MaxAwake:       m.MaxAwake,
		AvgAwake:       m.AvgAwake(),
		AwakeQuantiles: awakeQuantiles(m.AwakePerNode, m.MaxAwake),
		AwakePerNode:   m.AwakePerNode,
		MessagesSent:   m.MessagesSent,
		BitsSent:       m.BitsSent,
		MaxMessageBits: m.MaxMessageBits,
	}
}

// Result is an MIS algorithm's output (the typed view Run returns; the
// registry-level envelope is Report).
type Result struct {
	// InMIS[v] reports whether node v joined the MIS.
	InMIS []bool
	// Metrics holds the run's complexity measures.
	Metrics Metrics

	traced
}

// RunMIS executes the selected MIS algorithm on g and returns its MIS
// and metrics; it dispatches through the task registry (RunTask is the
// registry-level equivalent and also covers coloring and matching).
// The output is always verified to be a maximal independent set before
// returning. For spec-driven execution — serializable inputs,
// observers — use Run.
func RunMIS(g *Graph, algo Algorithm, opt Options) (*Result, error) {
	return RunMISContext(context.Background(), g, algo, opt)
}

// RunMISContext is RunMIS under a context: cancellation or a missed
// deadline aborts the simulation at the next round boundary.
func RunMISContext(ctx context.Context, g *Graph, algo Algorithm, opt Options) (*Result, error) {
	// Reject non-MIS tasks before spending a simulation on them.
	if t, ok := TaskByName(string(algo)); ok && t.Kind != "mis" {
		return nil, fmt.Errorf("awakemis: task %q does not compute an MIS; use RunTask", algo)
	}
	rep, err := RunTaskContext(ctx, g, string(algo), opt)
	if err != nil {
		return nil, err
	}
	return &Result{InMIS: rep.Output.InMIS, Metrics: rep.Metrics, traced: rep.traced}, nil
}

// Verify checks that inMIS is a maximal independent set of g.
func Verify(g *Graph, inMIS []bool) error {
	return verifyMIS(g, Output{InMIS: inMIS})
}

// DeriveSeed derives an independent stream seed from a root seed: the
// centralized splitmix64 deriver every ID assignment, edge order, and
// batch-spec seed goes through (replacing the historical seed^const
// XORs, whose nearby constants produced correlated streams). Equal
// inputs give equal outputs, so derived seeds are as replayable as the
// root seed.
func DeriveSeed(seed int64, label string, n int64) int64 {
	return rng.Derive(seed, label, n)
}

// permIDs derives the random ID permutation of [1, n] used by the
// permutation-ID tasks (naive-greedy, vt-mis, coloring).
func permIDs(n int, seed int64) []int {
	perm := rand.New(rand.NewSource(rng.Derive(seed, "perm-ids", 0))).Perm(n)
	ids := make([]int, n)
	for v, p := range perm {
		ids[v] = p + 1
	}
	return ids
}

// bigIDs derives n distinct IDs from the 2⁴⁰ space (Lemma 11's I) via
// the collision-free Feistel generator — no rejection table.
func bigIDs(n int, seed int64) []int64 {
	return rng.IDs40(n, rng.Derive(seed, "big-ids", 0))
}
