package awakemis_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"awakemis"
)

// quickStudy is the acceptance-criteria workload: the paper's
// headline task and the VT-MIS auxiliary over an n-sweep, three
// trials per cell. The seed pins one deterministic draw of the shared
// per-size graphs (cells run all trials on one graph since the paired
// graph-seed derivation). At this sweep awake-mis's fitted max_awake
// model changes with the seed: seeds 1–10 fit loglog n at 5 of them
// (3, 5, 6, 9 and 10), n at 4 and sqrt n at 1. Seed 5 is one of the
// loglog draws, not a typical one.
func quickStudy() awakemis.StudySpec {
	return awakemis.StudySpec{
		Name:    "quick",
		Tasks:   []string{"awake-mis", "vt-mis"},
		Sizes:   []int{64, 256, 1024},
		Trials:  3,
		Seed:    5,
		Options: awakemis.Options{Strict: true},
	}
}

// tinyStudy is the cheapest interesting grid, for tests that sweep
// executor settings.
func tinyStudy() awakemis.StudySpec {
	return awakemis.StudySpec{
		Name:    "tiny",
		Tasks:   []string{"luby", "vt-mis"},
		Sizes:   []int{32, 64},
		Trials:  2,
		Seed:    3,
		Options: awakemis.Options{Strict: true},
	}
}

func TestStudySpecExpansion(t *testing.T) {
	ss := awakemis.StudySpec{
		Tasks:    []string{"awake-mis", "luby"},
		Families: []awakemis.GraphSpec{{Family: "gnp"}, {Family: "Regular", Degree: 6}},
		Sizes:    []int{32, 64},
		Engines:  []awakemis.Engine{""},
		Trials:   2,
		Seed:     9,
	}
	cells := ss.Cells()
	specs := ss.Specs()
	if len(cells) != 2*2*2 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	if len(specs) != len(cells)*2 {
		t.Fatalf("specs = %d, want %d", len(specs), len(cells)*2)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
	}
	// The empty engine resolves; the mixed-case family lowercases and
	// its knob lands in the family key.
	if cells[0].Engine != awakemis.EngineStepped {
		t.Errorf("engine = %q, want stepped", cells[0].Engine)
	}
	if want := "regular(d=6)"; cells[len(cells)-1].Family != want {
		t.Errorf("family key = %q, want %q", cells[len(cells)-1].Family, want)
	}
	// Every spec is valid, seed-resolved, and trace-free.
	seedsByGraph := map[string]int64{}
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			t.Fatalf("spec %d invalid: %v", i, err)
		}
		if spec.Options.Seed == 0 {
			t.Fatalf("spec %d seed unresolved", i)
		}
		if spec.Options.Trace {
			t.Fatalf("spec %d leaked trace: %+v", i, spec.Options)
		}
		// Seeds depend only on (family, size, trial): the same graph
		// under every task and engine.
		cell, trial := cells[i/2], i%2
		key := cell.Family + "/" + string(rune('0'+trial)) + "/" + string(rune('0'+cell.N/32))
		if prev, ok := seedsByGraph[key]; ok && prev != spec.Options.Seed {
			t.Errorf("spec %d: seed %d differs from sibling %d for %s", i, spec.Options.Seed, prev, key)
		}
		seedsByGraph[key] = spec.Options.Seed
	}
	// Expansion is deterministic.
	again := ss.Specs()
	for i := range specs {
		if specs[i] != again[i] {
			t.Fatalf("expansion not deterministic at spec %d", i)
		}
	}

	// Cell seeds depend on the nominal cell, not its grid position:
	// two studies overlapping on a (family, n, trial) derive the same
	// spec for it, so their daemon submissions share one cache entry.
	wide := awakemis.StudySpec{Tasks: []string{"luby"}, Sizes: []int{32, 64}, Trials: 1, Seed: 9}
	narrow := awakemis.StudySpec{Tasks: []string{"luby"}, Sizes: []int{64}, Trials: 1, Seed: 9}
	if wide.Specs()[1] != narrow.Specs()[0] {
		t.Errorf("overlapping cells expand differently:\n%+v\n%+v", wide.Specs()[1], narrow.Specs()[0])
	}
}

func TestStudySpecValidate(t *testing.T) {
	cases := []struct {
		name string
		ss   awakemis.StudySpec
		want string
	}{
		{"no tasks", awakemis.StudySpec{}, "missing tasks"},
		{"unknown task", awakemis.StudySpec{Tasks: []string{"quicksort"}}, "unknown task"},
		{"dup task", awakemis.StudySpec{Tasks: []string{"luby", "luby"}}, "duplicate"},
		{"family n", awakemis.StudySpec{Tasks: []string{"luby"}, Families: []awakemis.GraphSpec{{Family: "gnp", N: 8}}}, "n must be zero"},
		{"family seed", awakemis.StudySpec{Tasks: []string{"luby"}, Families: []awakemis.GraphSpec{{Family: "gnp", Seed: 1}}}, "seed must be zero"},
		{"options seed", awakemis.StudySpec{Tasks: []string{"luby"}, Options: awakemis.Options{Seed: 5}}, "options.seed"},
		{"options engine", awakemis.StudySpec{Tasks: []string{"luby"}, Options: awakemis.Options{Engine: awakemis.EngineStepped}}, "options.engine"},
		{"bad size", awakemis.StudySpec{Tasks: []string{"luby"}, Sizes: []int{0}}, "sizes[0]"},
		{"bad engine", awakemis.StudySpec{Tasks: []string{"luby"}, Engines: []awakemis.Engine{"quantum"}}, "unknown engine"},
		{"lockstep engine", awakemis.StudySpec{Tasks: []string{"luby"}, Engines: []awakemis.Engine{"lockstep"}}, "stepped is the only engine"},
		{"dup engine", awakemis.StudySpec{Tasks: []string{"luby"}, Engines: []awakemis.Engine{"", "stepped"}}, "duplicate"},
		{"oversized grid", awakemis.StudySpec{Tasks: []string{"luby"}, Trials: 1 << 40}, "split the grid"},
		// 3 sizes × 2^62 overflows a naive running product past the cap
		// check; the per-factor guard must trip instead of panicking in
		// the expansion's make().
		{"overflowing grid", awakemis.StudySpec{Tasks: []string{"luby"}, Trials: 1 << 62}, "split the grid"},
		{"cross-axis", awakemis.StudySpec{Tasks: []string{"luby"}, Families: []awakemis.GraphSpec{{Family: "regular", Degree: 64}}, Sizes: []int{32, 128}}, "degree"},
	}
	for _, c := range cases {
		err := c.ss.Validate()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		if !strings.Contains(err.Error(), "invalid spec") {
			t.Errorf("%s: error %q does not wrap ErrInvalidSpec", c.name, err)
		}
	}
	if err := quickStudy().Validate(); err != nil {
		t.Errorf("quick study invalid: %v", err)
	}
}

// TestStudyArtifactDeterminism is the study determinism contract:
// the same StudySpec produces a byte-identical StudyResult artifact
// at every Parallel and GOMAXPROCS setting.
func TestStudyArtifactDeterminism(t *testing.T) {
	ss := tinyStudy()
	var golden []byte
	for _, cfg := range []struct {
		runner awakemis.StudyRunner
		procs  int
	}{
		{awakemis.StudyRunner{Parallel: 1}, 1},
		{awakemis.StudyRunner{Parallel: 2}, 1},
		{awakemis.StudyRunner{Parallel: 8}, 4},
		{awakemis.StudyRunner{}, runtime.GOMAXPROCS(0)}, // defaults
	} {
		var res *awakemis.StudyResult
		var err error
		atGOMAXPROCS(cfg.procs, func() { res, err = cfg.runner.Run(context.Background(), ss) })
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		data, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = data
			continue
		}
		if string(data) != string(golden) {
			t.Fatalf("artifact differs at Parallel=%d GOMAXPROCS=%d", cfg.runner.Parallel, cfg.procs)
		}
	}
}

// TestStudyFitPrefersLogLog pins seed 5's draw of the quick study:
// there awake-mis's max_awake fit prefers the log log n model while
// vt-mis (awake Θ(log I), I = n) prefers log n. It checks that the
// fits, their intervals and the cell summaries are wired up; it does
// not show Theorem 13, since half the seeds fit another model at this
// sweep (see quickStudy). TestPaperClaims makes the check of Theorem
// 13 that holds at every seed.
func TestStudyFitPrefersLogLog(t *testing.T) {
	res, err := awakemis.RunStudy(quickStudy())
	if err != nil {
		t.Fatal(err)
	}
	fit, ok := res.Fit("awake-mis", "gnp", "max_awake")
	if !ok {
		t.Fatal("awake-mis max_awake fit missing")
	}
	if fit.Model != "loglog n" {
		t.Errorf("awake-mis max_awake model = %q, want loglog n (fit %+v)", fit.Model, fit)
	}
	if fit.B < fit.BLo-1e-9 || fit.B > fit.BHi+1e-9 {
		t.Errorf("slope %v outside its CI [%v, %v]", fit.B, fit.BLo, fit.BHi)
	}
	vt, ok := res.Fit("vt-mis", "gnp", "max_awake")
	if !ok {
		t.Fatal("vt-mis max_awake fit missing")
	}
	if vt.Model != "log n" {
		t.Errorf("vt-mis max_awake model = %q, want log n (fit %+v)", vt.Model, vt)
	}
	// Cells carry the distribution summary metrics.
	cell, ok := res.Cell("awake-mis", "gnp", 1024)
	if !ok {
		t.Fatal("awake-mis n=1024 cell missing")
	}
	for _, metric := range []string{"max_awake", "awake_p50", "awake_p99", "rounds", "graph_m"} {
		m, ok := cell.Metrics[metric]
		if !ok || m.Trials != 3 {
			t.Errorf("cell metric %s = %+v (ok=%v)", metric, m, ok)
		}
	}
}

// TestStudyArtifactRoundTrip: an artifact decoded from its own JSON
// re-encodes and re-renders identically — what lets a client of the
// daemon regenerate the CSV views locally.
func TestStudyArtifactRoundTrip(t *testing.T) {
	res, err := awakemis.RunStudy(tinyStudy())
	if err != nil {
		t.Fatal(err)
	}
	first, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded awakemis.StudyResult
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := decoded.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Error("JSON round trip not stable")
	}
	if res.CellsCSV() != decoded.CellsCSV() || res.FitsCSV() != decoded.FitsCSV() {
		t.Error("CSV renderings differ after round trip")
	}
	if !strings.HasPrefix(res.CellsCSV(), "task,family,n,engine,metric,trials,mean,std,min,median,max\n") {
		t.Errorf("cells CSV header:\n%s", res.CellsCSV())
	}
	wantRows := len(res.Cells)*len(res.Cells[0].Metrics) + 1
	if got := strings.Count(res.CellsCSV(), "\n"); got != wantRows {
		t.Errorf("cells CSV has %d lines, want %d", got, wantRows)
	}
}

func TestStudyAccumulatorGuards(t *testing.T) {
	ss := awakemis.StudySpec{Tasks: []string{"luby"}, Sizes: []int{16}, Trials: 1, Seed: 1}
	acc, err := ss.Accumulator()
	if err != nil {
		t.Fatal(err)
	}
	if acc.Total() != 1 {
		t.Fatalf("total = %d", acc.Total())
	}
	if _, err := acc.Result(); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("incomplete result error = %v", err)
	}
	rep, err := awakemis.Run(context.Background(), acc.Study().Specs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(0, rep); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(0, rep); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate add error = %v", err)
	}
	if err := acc.Add(5, rep); err == nil {
		t.Error("out-of-range add accepted")
	}
	if _, err := acc.Result(); err != nil {
		t.Errorf("complete result errored: %v", err)
	}
}

// TestStudyBytesFrozen pins the SHA-256 of every byte a small study
// emits: its expansion (json.Marshal of Specs, whose names and options
// enter the daemon's cache and store keys), the StudyResult artifact,
// and both CSV renderings. The grid has two tasks, two families (one
// with a knob), two sizes and two trials, so a change to enumeration
// order, cell identity, seed derivation, aggregation or fitting moves
// at least one digest. A refactor of the study code must leave every
// digest as it is.
func TestStudyBytesFrozen(t *testing.T) {
	ss := awakemis.StudySpec{
		Name:     "frozen",
		Tasks:    []string{"luby", "vt-mis"},
		Families: []awakemis.GraphSpec{{Family: "gnp"}, {Family: "regular", Degree: 4}},
		Sizes:    []int{32, 64},
		Trials:   2,
		Seed:     7,
		Options:  awakemis.Options{Strict: true},
	}
	specs, err := json.Marshal(ss.Specs())
	if err != nil {
		t.Fatal(err)
	}
	res, err := awakemis.RunStudy(ss)
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"specs", specs, "7ad50e4c4df01b0f6d61aa67df7c4a8fc38079e72e0f435aba376b501fd959dc"},
		{"artifact", artifact, "ae2c8881eee431ee50725582deba2220ce084b652f9050247262fac6ac842886"},
		{"cells.csv", []byte(res.CellsCSV()), "06247a2e6aeb495bd2dd5dfc692baf6b57b70414f3569e52e7a50aa704800985"},
		{"fits.csv", []byte(res.FitsCSV()), "5e22a18a8db54a55023f72c8f6631c09f534d6b3664c769c41d055339c4b2f28"},
	} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s digest = %s, want %s", c.name, got, c.want)
		}
	}
}
