package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
)

// metric is one measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object a run prints as its last line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything one run measured.
type record struct {
	Config   config             `json:"config"`
	Host     host               `json:"host"`
	Summary  summary            `json:"summary"`
	Samples  map[string]int     `json:"samples,omitempty"`
	OpMS     []float64          `json:"op_ms"`
	TracedMS []float64          `json:"traced_op_ms,omitempty"`
	SelfMS   map[string]float64 `json:"self_ms_per_op,omitempty"`
	Sessions []sessionCounts    `json:"sessions,omitempty"`
	Problems []string           `json:"problems,omitempty"`
	Spans    []span             `json:"-"`
}

// save writes the run record, and a traced run's spans, under
// work/results.
func (r *record) save(work string) error {
	dir := filepath.Join(work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if r.Config.Trace {
		trace = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-trace%d", r.Config.Workload, r.Config.Size, r.Config.Seed, trace))
	if err := writeJSON(base+".json", r); err != nil {
		return err
	}
	if r.Spans == nil {
		return nil
	}
	return writeJSON(base+"-spans.json", r.Spans)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print writes the host line, the sample and session counts, one line
// per metric and any failed checks, then the summary as the last line.
func (r *record) print(w io.Writer) error {
	host, err := json.Marshal(r.Host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", host)
	if r.Samples != nil {
		samples, err := json.Marshal(r.Samples)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "samples %s\n", samples)
	}
	if len(r.Sessions) > 0 {
		fmt.Fprintf(w, "sessions %s\n", lanesLine(r.Sessions))
	}
	for _, name := range slices.Sorted(maps.Keys(r.Summary.Metrics)) {
		m := r.Summary.Metrics[name]
		fmt.Fprintf(w, "%-26s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "failed: %s\n", p)
	}
	line, err := json.Marshal(r.Summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
