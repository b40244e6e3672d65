package awakemis

import (
	"bytes"
	"encoding/json"

	"awakemis/internal/trace"
)

// Output is the union of task outputs; exactly the fields of the task
// that produced it are non-nil.
//
// Output decodes the compact form json.Marshal writes for every MIS
// task, {"in_mis":[true,false,…]}, itself, and hands any other input to
// encoding/json (see UnmarshalJSON): the in_mis array is nearly all of
// an MIS Report's bytes, and decoding it one reflected literal at a
// time was most of the cost of decoding a Report.
type Output struct {
	// InMIS[v] reports whether node v joined the MIS (MIS tasks).
	InMIS []bool `json:"in_mis,omitempty"`
	// Color[v] is node v's color in [0, Δ] (the coloring task).
	Color []int `json:"color,omitempty"`
	// MatchedWith[v] is v's partner, or -1 if unmatched (the matching
	// task).
	MatchedWith []int `json:"matched_with,omitempty"`
}

// UnmarshalJSON decodes an Output. Input that is exactly
// {"in_mis":[…]} with true and false literals separated by single
// commas and no whitespace sets InMIS to a fresh slice (non-nil even
// when empty) and leaves Color and MatchedWith as they were, as
// encoding/json leaves absent keys. Every other input (whitespace such
// as Report.JSON's indented form, null, other or repeated keys, other
// key casing) is decoded by encoding/json into a method-free copy of
// Output, so its results and errors are encoding/json's.
//
// Inside a Report, encoding/json validates the whole document before
// it calls this method, so malformed JSON fails as before. A type error
// inside output ends the Report's decode there, where encoding/json
// would go on to decode the fields after output before returning it. A
// Decoder's DisallowUnknownFields does not reach inside output.
func (o *Output) UnmarshalJSON(data []byte) error {
	if in, ok := compactInMIS(data); ok {
		o.InMIS = in
		return nil
	}
	type fields Output // Output without its methods
	return json.Unmarshal(data, (*fields)(o))
}

// compactInMIS parses data when it is json.Marshal's compact form of an
// Output holding only InMIS, and reports whether it was.
func compactInMIS(data []byte) ([]bool, bool) {
	body, ok := bytes.CutPrefix(data, []byte(`{"in_mis":[`))
	if !ok {
		return nil, false
	}
	if body, ok = bytes.CutSuffix(body, []byte(`]}`)); !ok {
		return nil, false
	}
	in := make([]bool, 0, bytes.Count(body, []byte{','})+1)
	for len(body) > 0 {
		switch {
		case len(body) >= len("true") && string(body[:len("true")]) == "true":
			in, body = append(in, true), body[len("true"):]
		case len(body) >= len("false") && string(body[:len("false")]) == "false":
			in, body = append(in, false), body[len("false"):]
		default:
			return nil, false
		}
		if len(body) == 0 {
			break
		}
		if body[0] != ',' || len(body) == 1 {
			return nil, false
		}
		body = body[1:]
	}
	return in, true
}

// GraphStats summarizes a run's input graph.
type GraphStats struct {
	N         int `json:"n"`
	M         int `json:"m"`
	MaxDegree int `json:"max_degree"`
}

func statsOf(g *Graph) GraphStats {
	return GraphStats{N: g.N(), M: g.M(), MaxDegree: g.MaxDegree()}
}

// Report is the machine-readable result envelope every task run
// produces: what ran, on what input, under which engine and seed, what
// came out, and what it cost. It marshals to JSON as-is (the per-node
// awake counters are elided from JSON to keep reports compact at
// million-node scale; use the in-memory Metrics.AwakePerNode).
//
// Reports are deterministic except WallMS: equal (graph, task, seed)
// runs produce identical reports at every GOMAXPROCS setting and batch
// size.
type Report struct {
	// Task names the registered task that produced this report.
	Task string `json:"task"`
	// Name is the spec label when the run came from a Spec ("" for
	// direct RunTask calls).
	Name string `json:"name,omitempty"`
	// Engine records the runtime engine.
	Engine string `json:"engine"`
	// Seed is the run seed every stream derived from.
	Seed int64 `json:"seed"`
	// Graph summarizes the input.
	Graph GraphStats `json:"graph"`
	// Metrics holds the run's complexity measures.
	Metrics Metrics `json:"metrics"`
	// Output is the task's verified output.
	Output Output `json:"output"`
	// Verified reports that the task's oracle accepted the output (a
	// Report is only produced when it did).
	Verified bool `json:"verified"`
	// WallMS is the wall-clock run time in milliseconds — the only
	// nondeterministic field.
	WallMS float64 `json:"wall_ms"`
	// RoundSummary is the optional compact per-round block
	// (Options.RoundSummary); deterministic like the rest of the report.
	RoundSummary *RoundSummary `json:"round_summary,omitempty"`

	traced
}

// JSON marshals the report (indented, stable field order).
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// traced holds a run's trace collector, nil unless Options.Trace was
// set. Report and Result embed it for its two renderings; it has no
// exported field, so it adds nothing to the wire form.
type traced struct {
	trace *trace.Collector
}

// Timeline renders an ASCII awake-density timeline of the k busiest
// nodes (requires Options.Trace; otherwise returns a notice).
func (t traced) Timeline(k, width int) string {
	if t.trace == nil {
		return "tracing disabled: set Options.Trace\n"
	}
	return t.trace.Timeline(t.trace.BusiestNodes(k), width)
}

// TraceSummary describes the recorded trace (requires Options.Trace).
func (t traced) TraceSummary() string {
	if t.trace == nil {
		return "tracing disabled: set Options.Trace"
	}
	return t.trace.Summary()
}
