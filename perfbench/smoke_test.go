package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"
)

var workloads = []string{"flagship", "big-graph", "service"}

// promised returns the metric names BENCHMARK.json lists, sorted.
func promised(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var b struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	slices.Sort(endToEnd)
	slices.Sort(perLayer)
	return endToEnd, perLayer
}

// tiny runs one workload in the smoke mode.
func tiny(t *testing.T, workload string, seed int64, trace bool, corrupt int) *record {
	t.Helper()
	rec, err := run(config{Workload: workload, Seed: seed, Seconds: 1, Trace: trace, Size: "tiny", Corrupt: corrupt, Work: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return rec
}

// TestTinyRuns runs every workload in the smoke mode, untraced and
// traced: every op passes its checks, and the metrics printed are
// exactly those BENCHMARK.json lists, the end-to-end ones never 0.
func TestTinyRuns(t *testing.T) {
	endToEnd, perLayer := promised(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec := tiny(t, w, defaultSeed, trace, -1)
			s := rec.Summary
			if !s.Correct || s.Failed != 0 || s.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d %v", w, trace, s.Correct, s.Failed, s.Attempted, rec.Problems)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := slices.Sorted(maps.Keys(s.Metrics)); !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w, trace, got, want)
			}
			for name, m := range s.Metrics {
				if !trace && m.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w, name, m.Value)
				}
			}
		}
	}
}

// TestCorruptedReportFails shows the output check at work: a report
// corrupted after its op ran is one failed op, whether it is held to
// the reference digest (default seed) or to the warm-up copy (another
// seed).
func TestCorruptedReportFails(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, 2} {
			s := tiny(t, w, seed, false, 0).Summary
			if s.Correct || s.Failed != 1 {
				t.Errorf("%s seed %d: correct=%v failed=%d, want one failed op", w, seed, s.Correct, s.Failed)
			}
		}
	}
}
