package awakemis_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"awakemis"
	"awakemis/internal/core"
	"awakemis/internal/sim"
	"awakemis/internal/vtree"
)

// TestPaperClaims runs every claim file under testdata/claims — the
// paper's results as StudySpecs, plus the constants ablation as one
// batch of Specs — checks every cell's message budget, and asserts in
// one subtest per experiment what holds at every one of seeds 1–10:
// exact per-cell bounds, the fitted max_awake model where that model
// does not change with the seed, and growth claims as comparisons
// between cells. README's "Reproducing the paper" table maps each
// experiment to its file; `awakemis -study <file>` or
// `awakemis -batch <file>` prints its table.
func TestPaperClaims(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "claims", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no claim files (%v)", err)
	}
	ctx := context.Background()
	studies := map[string]*awakemis.StudyResult{}
	var ablation []awakemis.Spec
	var ablationReports []*awakemis.Report
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		if bytes.HasPrefix(bytes.TrimSpace(data), []byte("[")) {
			if name != "ablation" {
				t.Fatalf("%s: the ablation is the one batch file", path)
			}
			decodeClaim(t, path, data, &ablation)
			// Runner seed 1 is `awakemis -batch`'s default -seed.
			ablationReports, err = (&awakemis.Runner{Seed: 1}).RunBatch(ctx, ablation)
			if err != nil {
				t.Fatal(err)
			}
			for i, rep := range ablationReports {
				checkBudget(t, name+"/"+ablation[i].Name, rep.Task, ablation[i].Options, rep.Graph.N,
					float64(rep.Metrics.MaxMessageBits))
			}
			continue
		}
		var ss awakemis.StudySpec
		decodeClaim(t, path, data, &ss)
		res, err := (&awakemis.StudyRunner{}).Run(ctx, ss)
		if err != nil {
			t.Fatal(err)
		}
		studies[name] = res
		for _, c := range res.Cells {
			checkBudget(t, name+"/"+c.Task+"/"+c.Family, c.Task, res.Study.Options, c.N,
				c.Metrics["max_message_bits"].Max)
		}
	}

	headline := claimStudy(t, studies, "headline")
	// Comparisons across files need the same graphs: cell graph seeds
	// depend only on the study seed, the family and the size.
	for name, res := range studies {
		if res.Study.Seed != headline.Study.Seed {
			t.Errorf("%s: seed %d, want the headline's %d", name, res.Study.Seed, headline.Study.Seed)
		}
	}

	t.Run("theorem-13", func(t *testing.T) {
		// Awake-MIS's max awake is O(log log n): from 4,096 to 16,384
		// nodes it rises by a smaller fraction than VT-MIS's
		// Θ(log n) on the same graphs.
		am := rise(t, headline, "awake-mis", "max_awake", 4096, 16384)
		vt := rise(t, headline, "vt-mis", "max_awake", 4096, 16384)
		if am >= vt {
			t.Errorf("max_awake from n=4096 to 16384: awake-mis rises %+.1f%%, vt-mis %+.1f%%; want awake-mis below",
				100*am, 100*vt)
		}
	})
	t.Run("corollary-14", func(t *testing.T) {
		// The round variant runs Appendix A's deterministic
		// construction, which takes more rounds and more awake rounds
		// than awake-mis's randomized one (ROADMAP item 8).
		for _, c := range claimStudy(t, studies, "awake-mis-round").Cells {
			base := claimCell(t, headline, "awake-mis", c.Family, c.N)
			for _, metric := range []string{"rounds", "max_awake"} {
				if got, am := c.Metrics[metric].Mean, base.Metrics[metric].Mean; got <= am {
					t.Errorf("%s n=%d: awake-mis-round mean %s %v, not above awake-mis's %v", c.Family, c.N, metric, got, am)
				}
			}
		}
	})
	t.Run("e3-vt-mis", func(t *testing.T) {
		// Lemma 10 with I = n: max awake is within ⌈log₂ n⌉ + 2 and
		// grows as log n.
		checkTreeBound(t, headline, "vt-mis")
		checkFit(t, headline, "vt-mis", "gnp", "log n")
	})
	t.Run("e4-ldt-mis-cycle", func(t *testing.T) {
		// Lemma 11: on cycles of n′ nodes with IDs from 2⁴⁰, max awake
		// grows as log n′.
		checkFit(t, claimStudy(t, studies, "ldt-mis"), "ldt-mis", "cycle", "log n")
	})
	t.Run("e7-all-algorithms", func(t *testing.T) {
		// The comparison runs all four algorithms at every size of its
		// file.
		for _, s := range []struct {
			study string
			tasks []string
		}{
			{"headline", []string{"luby", "vt-mis", "awake-mis"}},
			{"naive-greedy", []string{"naive-greedy"}},
		} {
			res := claimStudy(t, studies, s.study)
			for _, task := range s.tasks {
				for _, n := range res.Study.Sizes {
					if _, ok := res.Cell(task, "gnp", n); !ok {
						t.Errorf("%s: no %s cell at n=%d", s.study, task, n)
					}
				}
			}
		}
	})
	t.Run("e7-headline", func(t *testing.T) {
		// Sleeping costs rounds: at every n awake-mis takes more rounds
		// than vt-mis (about I = n), and vt-mis more than luby.
		for _, n := range headline.Study.Sizes {
			am := claimCell(t, headline, "awake-mis", "gnp", n).Metrics["rounds"].Mean
			vt := claimCell(t, headline, "vt-mis", "gnp", n).Metrics["rounds"].Mean
			lu := claimCell(t, headline, "luby", "gnp", n).Metrics["rounds"].Mean
			if am <= vt || vt <= lu {
				t.Errorf("n=%d: mean rounds awake-mis %v, vt-mis %v, luby %v; want them decreasing", n, am, vt, lu)
			}
		}
		// §5.3: every naive-greedy node is awake in all I = n rounds.
		naive := claimStudy(t, studies, "naive-greedy")
		for _, c := range taskCells(t, naive, "naive-greedy") {
			if awake := c.Metrics["max_awake"]; awake.Min != float64(c.N) || awake.Max != float64(c.N) {
				t.Errorf("%s n=%d: naive-greedy max_awake in [%v, %v], want n in every trial",
					c.Family, c.N, awake.Min, awake.Max)
			}
		}
		checkFit(t, naive, "naive-greedy", "gnp", "n")
		// VT-MIS computes the naive greedy's output with exponentially
		// fewer awake rounds (Lemma 10 against §5.3).
		for _, c := range naive.Cells {
			vt := claimCell(t, headline, "vt-mis", c.Family, c.N).Metrics["max_awake"].Max
			if naive := c.Metrics["max_awake"].Min; naive <= vt {
				t.Errorf("%s n=%d: naive-greedy max_awake %v, not above vt-mis's %v", c.Family, c.N, naive, vt)
			}
		}
	})
	t.Run("e8-node-average", func(t *testing.T) {
		// Awake-MIS bounds the worst case, not the node average (§2,
		// footnote 4): luby's node-averaged awake stays below it.
		for _, n := range headline.Study.Sizes {
			am := claimCell(t, headline, "awake-mis", "gnp", n).Metrics["avg_awake"].Mean
			lu := claimCell(t, headline, "luby", "gnp", n).Metrics["avg_awake"].Mean
			if lu >= am {
				t.Errorf("n=%d: mean avg_awake luby %v, not below awake-mis's %v", n, lu, am)
			}
		}
		// Its node average is as flat as its worst case.
		am := rise(t, headline, "awake-mis", "avg_awake", 4096, 16384)
		vt := rise(t, headline, "vt-mis", "avg_awake", 4096, 16384)
		if am >= vt {
			t.Errorf("avg_awake from n=4096 to 16384: awake-mis rises %+.1f%%, vt-mis %+.1f%%; want awake-mis below",
				100*am, 100*vt)
		}
	})
	t.Run("e9-ldt-mis-path", func(t *testing.T) {
		// Lemmas 9 and 16: on paths of n′ nodes too, max awake grows
		// as log n′.
		checkFit(t, claimStudy(t, studies, "ldt-mis"), "ldt-mis", "path", "log n")
	})
	t.Run("e10-ablation", func(t *testing.T) {
		// Each pair of specs that differs in one constant orders its
		// rounds: a larger C1 raises the level probabilities, so the
		// ladder has fewer levels; a larger Δ′ adds batches per level;
		// a larger NP lengthens each LDT-MIS phase.
		if len(ablationReports) == 0 {
			t.Fatal("no ablation batch")
		}
		knobs := []struct {
			name  string
			sign  int64 // the sign of the rounds' move as the constant grows
			value func(core.Params) float64
			unset func(*core.Params)
		}{
			{"C1", -1, func(p core.Params) float64 { return p.C1 }, func(p *core.Params) { p.C1 = 0 }},
			{"Δ′", +1, func(p core.Params) float64 { return float64(p.DeltaPrime) }, func(p *core.Params) { p.DeltaPrime = 0 }},
			{"NP", +1, func(p core.Params) float64 { return float64(p.NP) }, func(p *core.Params) { p.NP = 0 }},
		}
		pairs := 0
		for i, a := range ablation {
			for j, b := range ablation {
				for _, k := range knobs {
					if k.value(a.Options.Params) >= k.value(b.Options.Params) {
						continue
					}
					a, b := a, b
					a.Name, b.Name = "", ""
					k.unset(&a.Options.Params)
					k.unset(&b.Options.Params)
					if a != b {
						continue // b differs from a in more than k
					}
					pairs++
					ra, rb := ablationReports[i].Metrics.Rounds, ablationReports[j].Metrics.Rounds
					if (rb-ra)*k.sign <= 0 {
						t.Errorf("%s → %s: rounds %d → %d move against %s", ablation[i].Name, ablation[j].Name, ra, rb, k.name)
					}
				}
			}
		}
		if pairs == 0 {
			t.Error("no ablation pair varies one constant")
		}
	})
	t.Run("e11-coloring", func(t *testing.T) {
		// §7: the (Δ+1)-coloring runs on VT-MIS's schedule, so Lemma
		// 10's bound and growth hold for it.
		ext := claimStudy(t, studies, "extensions")
		checkTreeBound(t, ext, "coloring")
		checkFit(t, ext, "coloring", "gnp", "log n")
	})
	t.Run("e12-matching", func(t *testing.T) {
		// §7: a node wakes at most once per incident edge, plus one.
		for _, c := range taskCells(t, claimStudy(t, studies, "extensions"), "matching") {
			awake, degree := c.Metrics["max_awake"].Max, c.Metrics["graph_max_degree"].Max
			if awake > degree+1 {
				t.Errorf("%s n=%d: matching max_awake %v > Δ+1 = %v", c.Family, c.N, awake, degree+1)
			}
		}
	})
}

// decodeClaim decodes a claim file as `awakemis -study` and `-batch`
// do: unknown keys and trailing data fail it.
func decodeClaim(t *testing.T, path string, data []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("%s: trailing data after the JSON value", path)
	}
}

// checkTreeBound asserts Lemma 10's bound on every cell of a task run
// with I = n: ⌈log₂ I⌉ + 1 awake rounds in the virtual tree plus one
// model round.
func checkTreeBound(t *testing.T, res *awakemis.StudyResult, task string) {
	t.Helper()
	for _, c := range taskCells(t, res, task) {
		if awake, bound := c.Metrics["max_awake"].Max, float64(vtree.Depth(c.N)+2); awake > bound {
			t.Errorf("%s on %s n=%d: max_awake %v > ⌈log₂ n⌉+2 = %v", task, c.Family, c.N, awake, bound)
		}
	}
}

// checkFit asserts the growth model fitted to a series' max_awake.
func checkFit(t *testing.T, res *awakemis.StudyResult, task, family, want string) {
	t.Helper()
	f, ok := res.Fit(task, family, "max_awake")
	if !ok {
		t.Fatalf("%s: no max_awake fit for %s on %s", res.Study.Name, task, family)
	}
	if f.Model != want {
		t.Errorf("%s on %s: max_awake fits %s (R² %.3f, margin %.3f over %s), want %s",
			task, family, f.Model, f.R2, f.Margin, f.RunnerUp, want)
	}
}

// checkBudget asserts that no message exceeded the run's CONGEST
// budget: 16⌈log₂ N⌉ + 16 bits, or for ldt-mis the budget of its 2⁴⁰
// ID space (Lemma 11 allows O(log I)-bit messages).
func checkBudget(t *testing.T, label, task string, opt awakemis.Options, n int, maxBits float64) {
	t.Helper()
	if opt.N != 0 {
		n = opt.N
	}
	budget := sim.DefaultBandwidth(n)
	if task == string(awakemis.LDTMIS) {
		budget = sim.DefaultBandwidth(1 << 40)
	}
	if opt.Bandwidth != 0 {
		budget = opt.Bandwidth
	}
	if maxBits > float64(budget) {
		t.Errorf("%s n=%d: a %v-bit message exceeds the %d-bit budget", label, n, maxBits, budget)
	}
}

func claimStudy(t *testing.T, studies map[string]*awakemis.StudyResult, name string) *awakemis.StudyResult {
	t.Helper()
	res, ok := studies[name]
	if !ok {
		t.Fatalf("no claim study %s.json", name)
	}
	return res
}

// taskCells returns a study's cells of one task.
func taskCells(t *testing.T, res *awakemis.StudyResult, task string) []awakemis.StudyCellResult {
	t.Helper()
	var cells []awakemis.StudyCellResult
	for _, c := range res.Cells {
		if c.Task == task {
			cells = append(cells, c)
		}
	}
	if len(cells) == 0 {
		t.Fatalf("%s: no %s cells", res.Study.Name, task)
	}
	return cells
}

func claimCell(t *testing.T, res *awakemis.StudyResult, task, family string, n int) awakemis.StudyCellResult {
	t.Helper()
	c, ok := res.Cell(task, family, n)
	if !ok {
		t.Fatalf("%s: no %s cell on %s at n=%d", res.Study.Name, task, family, n)
	}
	return c
}

// rise is the fraction by which a task's mean metric grows from n0 to
// n1 nodes.
func rise(t *testing.T, res *awakemis.StudyResult, task, metric string, n0, n1 int) float64 {
	t.Helper()
	a := claimCell(t, res, task, "gnp", n0).Metrics[metric].Mean
	b := claimCell(t, res, task, "gnp", n1).Metrics[metric].Mean
	return b/a - 1
}
