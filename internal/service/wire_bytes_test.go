package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"awakemis"
	"awakemis/internal/buildinfo"
)

// fullStats sets every Stats field, build identity included, to a
// distinct value.
func fullStats() Stats {
	return Stats{
		CacheHits:        1,
		CacheMisses:      2,
		Coalesced:        3,
		EngineRuns:       4,
		CacheEntries:     5,
		CacheBytes:       6,
		CacheBudget:      7,
		CacheEvictions:   8,
		JobsSubmitted:    9,
		JobsCompleted:    10,
		JobsFailed:       11,
		JobsCanceled:     12,
		StudiesSubmitted: 13,
		StudiesCompleted: 14,
		StudiesFailed:    15,
		StudiesCanceled:  16,
		QueueDepth:       17,
		InFlight:         18,
		Draining:         true,
		StoreHits:        19,
		StoreMisses:      20,
		StoreEntries:     21,
		StoreBytes:       22,
		StoreBudget:      23,
		StoreEvictions:   24,
		StoreCorrupt:     25,
		StoreErrors:      26,
		Forwarded:        27,
		ForwardErrors:    28,
		PeerForwards:     map[string]int64{"http://w1": 29, "http://w2": 30},
		PeersHealthy:     31,
		PeersTotal:       32,
		RoundsSimulated:  33,
		SimSeconds:       0.25,
		StudyCells:       map[string]int64{"cached": 34, "done": 35},
		Info: buildinfo.Info{
			Version:   "v1.2.3",
			Revision:  "abc123+dirty",
			BuildTime: "2026-01-01T00:00:00Z",
			GoVersion: "go1.24.0",
		},
	}
}

// TestWireBytesFrozen pins the exact bytes of each wire type the
// daemon encodes: one fully populated value per type, marshaled (a Job
// also through the job handlers' marshalJob) and compared by SHA-256
// with the digest recorded when the test was written. The shape tests in stats_wire_test.go freeze key sets; this
// one also freezes key order and value encoding, so moving a field,
// renaming a key or re-declaring a struct shows up here.
func TestWireBytesFrozen(t *testing.T) {
	spec := awakemis.Spec{
		Name:    "w",
		Task:    "luby",
		Graph:   awakemis.GraphSpec{Family: "gnp", N: 64},
		Options: awakemis.Options{Seed: 7},
	}
	peer := fullStats()
	cases := []struct {
		name string
		v    any
		want string
	}{
		{"Job", Job{
			ID:      "j-000001",
			Status:  JobRunning,
			Hash:    "ab12",
			Spec:    spec,
			Cached:  true,
			Error:   "boom",
			Report:  json.RawMessage(`{"task":"luby"}`),
			TraceID: "t-1",
			Progress: &JobProgress{
				Rounds: 12, Executed: 10, Awake: 40, AwakeFrac: 0.625,
				ElapsedMS: 1.5, ETAMS: 2.25,
			},
		}, "b09923c7915aa79099fc386b29b4e62c3aa68ee03d2734364b3eda283de60b02"},
		{"Study", Study{
			ID:     "s-000001",
			Status: JobDone,
			Spec: awakemis.StudySpec{
				Name: "st", Tasks: []string{"luby"}, Sizes: []int{64, 256},
				Trials: 2, Seed: 3,
			},
			Done:   4,
			Total:  4,
			Error:  "none",
			Result: json.RawMessage(`{"cells":[]}`),
			Progress: &StudyProgress{
				Cells: []StudyCellProgress{{
					Index: 1, Task: "luby", Family: "gnp", N: 64, Engine: "stepped",
					State: CellCached, Done: 2, Trials: 2, Cached: 2,
				}},
				CellsQueued: 1, CellsRunning: 2, CellsDone: 3, CellsCached: 4,
				CellsFailed: 5, CellsCanceled: 6,
				RunsDone: 7, RunsCached: 8,
				ExecutedRounds: 9, EngineSeconds: 0.5,
				ElapsedMS: 10.5, ETAMS: 11.5,
			},
		}, "457082758b534fc01c1d61e5934232df98cfefadee461acbdcb536741eb8f1ff"},
		{"Stats", fullStats(), "ef822e2d33a81a5575dfb1f5f927c4ef9eed90524004baf9fcd3ebd51f77e0fe"},
		{"Health", Health{Status: "ok", Info: buildinfo.Info{
			Version: "v1.2.3", Revision: "abc123", BuildTime: "2026-01-01T00:00:00Z", GoVersion: "go1.24.0",
		}}, "4cbd4b9f6383450a9929a5934bbdc69d5222dde4f8f07702bcc16a0e7c0d2055"},
		{"TaskInfo", TaskInfo{Name: "luby", Kind: "mis", Summary: "Luby's MIS", IDScheme: "random"}, "8232a805cfa133d0ef74e78a81aa39c055bf2aa23e809a9fb92759e42d626553"},
		{"ClusterStats", ClusterStats{
			Self: fullStats(),
			Peers: []ClusterPeerStats{
				{Addr: "http://w1", Up: true, Stats: &peer},
				{Addr: "http://w2", Error: "connection refused"},
			},
			Total:      fullStats(),
			PeersUp:    1,
			PeersTotal: 2,
		}, "d5aa8ed7db96388708ffd9105e0ae1880eefd7e14a38584d341bfc47bcba2a79"},
	}
	check := func(name string, data []byte, err error, want string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s encodes to sha256 %s, want %s:\n%s", name, got, want, data)
		}
	}
	for _, c := range cases {
		data, err := json.Marshal(c.v)
		check(c.name, data, err, c.want)
		if job, ok := c.v.(Job); ok {
			// The job handlers' encoder must give the same bytes.
			data, err := marshalJob(job)
			check(c.name+" through marshalJob", data, err, c.want)
		}
	}
}

// TestMarshalJobMatchesMarshal: the job handlers' encoder writes
// json.Marshal's bytes for every combination of the omitempty fields
// around the report, with and without a report.
func TestMarshalJobMatchesMarshal(t *testing.T) {
	spec := awakemis.Spec{Task: "luby", Graph: awakemis.GraphSpec{Family: "gnp", N: 64}}
	for _, report := range []json.RawMessage{nil, json.RawMessage(`{"task":"luby","output":{"in_mis":[true,false]}}`)} {
		for mask := range 16 {
			job := Job{ID: "j-000001", Status: JobDone, Hash: "ab12", Spec: spec, Report: report}
			if mask&1 != 0 {
				job.Cached = true
			}
			if mask&2 != 0 {
				job.Error = "boom <&>"
			}
			if mask&4 != 0 {
				job.TraceID = "t-1"
			}
			if mask&8 != 0 {
				job.Progress = &JobProgress{Rounds: 3, Executed: 2, Awake: 5, AwakeFrac: 0.5}
			}
			want, err := json.Marshal(job)
			if err != nil {
				t.Fatal(err)
			}
			got, err := marshalJob(job)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("report %t, fields %04b: marshalJob wrote\n%s\nwant\n%s", report != nil, mask, got, want)
			}
		}
	}
}
