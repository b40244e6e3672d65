// Worker-count equivalence tests: the determinism contract of
// internal/sim, asserted at the public API for every algorithm. For a
// fixed seed, the stepped engine must produce identical Results at
// every worker count: the same MIS membership, the same round count,
// and the same per-node awake counters. Each algorithm's step program
// is additionally pinned to the output of its goroutine-form original.
package awakemis_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"awakemis"
	"awakemis/internal/core"
	"awakemis/internal/graph"
	"awakemis/internal/ldtmis"
	"awakemis/internal/luby"
	"awakemis/internal/naive"
	rng2 "awakemis/internal/rng"
	"awakemis/internal/sim"
	"awakemis/internal/vtcolor"
	"awakemis/internal/vtmatch"
	"awakemis/internal/vtmis"
)

// engineConfigs is the grid of (engine, workers) the contract covers.
func engineConfigs() []awakemis.Options {
	return []awakemis.Options{
		{Engine: awakemis.EngineStepped, Workers: 1},
		{Engine: awakemis.EngineStepped, Workers: 4},
		{Engine: awakemis.EngineStepped, Workers: runtime.NumCPU()},
	}
}

func equivGraphs() map[string]*awakemis.Graph {
	return map[string]*awakemis.Graph{
		"gnp":   awakemis.GNP(90, 0.05, 5),
		"cycle": awakemis.Cycle(41),
		"grid":  awakemis.Grid(7, 8),
	}
}

func TestAllAlgorithmsIdenticalAcrossEngines(t *testing.T) {
	for gname, g := range equivGraphs() {
		for _, algo := range awakemis.Algorithms() {
			t.Run(gname+"/"+string(algo), func(t *testing.T) {
				for _, seed := range []int64{1, 17} {
					var ref *awakemis.Result
					for _, base := range engineConfigs() {
						opt := base
						opt.Seed = seed
						opt.Strict = true
						res, err := awakemis.RunMIS(g, algo, opt)
						if err != nil {
							t.Fatalf("engine %s/%d: %v", opt.Engine, opt.Workers, err)
						}
						if ref == nil {
							ref = res
							continue
						}
						if !reflect.DeepEqual(ref.InMIS, res.InMIS) {
							t.Fatalf("seed %d: MIS diverges on %s/%d", seed, opt.Engine, opt.Workers)
						}
						if !reflect.DeepEqual(ref.Metrics, res.Metrics) {
							t.Fatalf("seed %d: metrics diverge on %s/%d:\n%+v\nvs\n%+v",
								seed, opt.Engine, opt.Workers, ref.Metrics, res.Metrics)
						}
					}
				}
			})
		}
	}
}

func TestColoringMatchingIdenticalAcrossEngines(t *testing.T) {
	g := awakemis.GNP(80, 0.06, 3)
	var refColor, refMatch *awakemis.Report
	for _, base := range engineConfigs() {
		opt := base
		opt.Seed = 5
		crep, err := awakemis.RunTask(g, awakemis.TaskColoring, opt)
		if err != nil {
			t.Fatal(err)
		}
		mrep, err := awakemis.RunTask(g, awakemis.TaskMatching, opt)
		if err != nil {
			t.Fatal(err)
		}
		if refColor == nil {
			refColor, refMatch = crep, mrep
			continue
		}
		if !reflect.DeepEqual(refColor.Output, crep.Output) || !reflect.DeepEqual(refColor.Metrics, crep.Metrics) {
			t.Errorf("coloring diverges on %s/%d", opt.Engine, opt.Workers)
		}
		if !reflect.DeepEqual(refMatch.Output, mrep.Output) || !reflect.DeepEqual(refMatch.Metrics, mrep.Metrics) {
			t.Errorf("matching diverges on %s/%d", opt.Engine, opt.Workers)
		}
	}
}

// TestStepPortsMatchGoroutineOriginals is the port-faithfulness check
// for every algorithm: each step program's output and Metrics must be
// identical at one and four workers, and their digest must equal the
// one its goroutine-form original produced on the same input (the pins
// in internal/sim's algorithms_test.go, which also run these inputs on
// the reference simulator).
func TestStepPortsMatchGoroutineOriginals(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := graph.GNP(70, 0.07, rng)
	n := g.N()
	ids := make([]int, n)
	for v, p := range rng.Perm(n) {
		ids[v] = p + 1
	}
	edgeIDs := vtmatch.EdgeIDs{}
	for i, e := range g.Edges() {
		edgeIDs[e] = i + 1
	}

	// awake-mis / ldt-mis inputs: the schedule every node derives
	// locally, and distinct big-space IDs with the component bound.
	baseCfg := sim.Config{Seed: 31, Strict: true}
	params := core.Params{}.WithDefaults(n)
	sched := core.NewSchedule(n, params, sim.DefaultBandwidth(n))
	bigCfg := baseCfg
	bigCfg.N = 1 << 16
	bigCfg.Bandwidth = sim.DefaultBandwidth(1 << 40)
	bigIDs := rng2.IDs40(n, 42)
	np := 1
	for _, c := range g.Components() {
		np = max(np, len(c))
	}

	type port struct {
		pin  string
		cfg  sim.Config
		out  func() any // fresh result container read back after the run
		prog func(out any) sim.StepProgram
	}
	matched := func() any {
		r := &vtmatch.Result{MatchedWith: make([]int, n)}
		for i := range r.MatchedWith {
			r.MatchedWith[i] = -1
		}
		return r
	}
	cases := map[string]port{
		"naive": {"3e2f60b1e8bbaf66", baseCfg,
			func() any { return &naive.Result{InMIS: make([]bool, n)} },
			func(o any) sim.StepProgram { return naive.StepProgram(o.(*naive.Result), ids, n) }},
		"luby": {"c841a2a3d7e07e54", baseCfg,
			func() any { return &luby.Result{InMIS: make([]bool, n)} },
			func(o any) sim.StepProgram { return luby.StepProgram(o.(*luby.Result)) }},
		"vtmis": {"954517d11194f122", baseCfg,
			func() any { return &vtmis.Result{InMIS: make([]bool, n)} },
			func(o any) sim.StepProgram { return vtmis.StepProgram(o.(*vtmis.Result), ids, n) }},
		"vtcolor": {"1cebe350cdf1090b", baseCfg,
			func() any { return &vtcolor.Result{Color: make([]int, n)} },
			func(o any) sim.StepProgram { return vtcolor.StepProgram(o.(*vtcolor.Result), ids, n) }},
		"vtmatch": {"98e59bb7f0eb9b84", baseCfg, matched,
			func(o any) sim.StepProgram { return vtmatch.StepProgram(o.(*vtmatch.Result), g, edgeIDs) }},
		"awake-mis": {"13ca303759128249", baseCfg,
			func() any { return &core.Result{InMIS: make([]bool, n), Batch: make([]int, n)} },
			func(o any) sim.StepProgram { return core.StepProgram(o.(*core.Result), sched, params, n) }},
		// ldt-mis ships 40-bit IDs in its control messages; its CONGEST
		// budget scales with log I like the task shim's.
		"ldt-mis": {"346026e2c5c0bd0a", bigCfg,
			func() any { return &ldtmis.Result{InMIS: make([]bool, n), NewID: make([]int, n)} },
			func(o any) sim.StepProgram {
				return ldtmis.StepProgram(o.(*ldtmis.Result), bigIDs, np, ldtmis.VariantAwake)
			}},
	}
	for algo, c := range cases {
		t.Run(algo, func(t *testing.T) {
			var refOut any
			var refMetrics *sim.Metrics
			for _, workers := range []int{1, 4} {
				out := c.out()
				m, err := sim.NewSteppedEngine(workers).Run(context.Background(), g, c.prog(out), c.cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if refOut == nil {
					refOut, refMetrics = out, m
					continue
				}
				if !reflect.DeepEqual(refOut, out) || !reflect.DeepEqual(refMetrics, m) {
					t.Fatalf("workers=%d: run diverges from workers=1", workers)
				}
			}
			sum := sha256.Sum256([]byte(fmt.Sprintf("%+v\n%+v", refOut, *refMetrics)))
			if got := hex.EncodeToString(sum[:8]); got != c.pin {
				t.Errorf("digest %s, goroutine original %s", got, c.pin)
			}
		})
	}
}
