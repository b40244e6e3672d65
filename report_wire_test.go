package awakemis_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"awakemis"
)

// fullReport populates every wire field of a Report with distinctive
// values — the fixture the golden file freezes.
func fullReport() *awakemis.Report {
	return &awakemis.Report{
		Task:   "awake-mis",
		Name:   "golden",
		Engine: "stepped",
		Seed:   42,
		Graph:  awakemis.GraphStats{N: 64, M: 160, MaxDegree: 9},
		Metrics: awakemis.Metrics{
			Rounds:         1234,
			ExecutedRounds: 210,
			MaxAwake:       17,
			AvgAwake:       8.25,
			AwakeQuantiles: awakemis.AwakeQuantiles{Min: 2, P25: 5, P50: 8, P75: 11, P90: 14, P99: 16},
			AwakePerNode:   []int64{1, 2, 3}, // json:"-": must never appear on the wire
			MessagesSent:   5120,
			BitsSent:       81920,
			MaxMessageBits: 176,
		},
		Output:   awakemis.Output{InMIS: []bool{true, false, true}},
		Verified: true,
		WallMS:   12.5,
	}
}

// TestReportGoldenJSON freezes the Report wire format: field names,
// field order, and indentation must match the checked-in golden file
// byte for byte. Reports are served over HTTP and content-addressed
// in the daemon's cache, so silent drift breaks clients and
// invalidates caches — if a change here is intentional, it is a wire
// format break: update testdata/report_golden.json deliberately and
// call it out in the changelog.
func TestReportGoldenJSON(t *testing.T) {
	got, err := fullReport().JSON()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s: %v (regenerate by writing the marshaled fixture)", golden, err)
	}
	if string(got) != strings.TrimRight(string(want), "\n") {
		t.Errorf("Report wire format drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestReportOmitemptyAudit pins which fields are elided when unset:
// optional labels and per-task outputs vanish, while structural
// fields (task, engine, seed, graph, metrics, output, verified,
// wall_ms) always appear so clients can rely on them.
func TestReportOmitemptyAudit(t *testing.T) {
	minimal := &awakemis.Report{Task: "luby", Engine: "stepped"}
	data, err := json.Marshal(minimal)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, always := range []string{"task", "engine", "seed", "graph", "metrics", "output", "verified", "wall_ms"} {
		if _, ok := keys[always]; !ok {
			t.Errorf("minimal report is missing required field %q", always)
		}
	}
	for _, elided := range []string{"name"} {
		if _, ok := keys[elided]; ok {
			t.Errorf("minimal report should elide %q", elided)
		}
	}

	// The compact awake-distribution summary always rides inside
	// metrics — even a zero-value report carries it, so study
	// aggregators never need to probe for its presence.
	var metrics map[string]json.RawMessage
	if err := json.Unmarshal(keys["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if _, ok := metrics["awake_quantiles"]; !ok {
		t.Error("metrics is missing awake_quantiles")
	}

	// The per-node awake counters are in-memory only (million-node
	// reports must stay compact), and empty task outputs are elided.
	full, err := json.Marshal(fullReport())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(full), "AwakePerNode") || strings.Contains(string(full), "awake_per_node") {
		t.Error("AwakePerNode leaked onto the wire")
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	outRaw := keys["output"]
	if err := json.Unmarshal(outRaw, &out); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"in_mis", "color", "matched_with"} {
		if _, ok := out[field]; ok {
			t.Errorf("empty output should elide %q", field)
		}
	}
}

// TestReportRoundTrip: a report decoded from its own wire form and
// re-encoded is byte-identical — the property the daemon's cache and
// client rely on.
func TestReportRoundTrip(t *testing.T) {
	first, err := fullReport().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded awakemis.Report
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := decoded.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Errorf("round trip not stable:\n%s\nvs\n%s", first, second)
	}
}
