package sim_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"awakemis/internal/core"
	"awakemis/internal/graph"
	"awakemis/internal/ldtmis"
	"awakemis/internal/luby"
	"awakemis/internal/naive"
	"awakemis/internal/rng"
	"awakemis/internal/sim"
	"awakemis/internal/vtcolor"
	"awakemis/internal/vtmatch"
	"awakemis/internal/vtmis"
)

// algoCase is one algorithm's step program on one input: a fresh
// output container, the program writing into it, and the run's
// configuration.
type algoCase struct {
	cfg  sim.Config
	g    *graph.Graph
	out  func() any
	step func(out any) sim.StepProgram
}

// algorithmPins holds the digest of each case's (output, Metrics)
// pair. They were recorded while each algorithm's goroutine-form
// original still existed, and that original produced the same digest
// on the same input, so each pin is the original's output.
var algorithmPins = map[string]string{
	"cycle/ldtmis/awake":    "458937070ff807cd",
	"cycle/ldtmis/round":    "2b91a5dd97e905ac",
	"gnp/ldtmis/awake":      "8b9fb21f28a4b1d2",
	"gnp/ldtmis/round":      "213b4dda03b4606f",
	"gnp60/core/awake":      "5e1675296b2d0eaf",
	"gnp60/core/round":      "933537c913d571b5",
	"gnp70-42/core/awake":   "13ca303759128249",
	"gnp70-42/core/round":   "57a62f6ad95bcc7c",
	"gnp70-42/ldtmis/awake": "346026e2c5c0bd0a",
	"gnp70-42/ldtmis/round": "05140c95244f2af7",
	"gnp70-42/luby":         "c841a2a3d7e07e54",
	"gnp70-42/naive":        "3e2f60b1e8bbaf66",
	"gnp70-42/vtcolor":      "1cebe350cdf1090b",
	"gnp70-42/vtmatch":      "98e59bb7f0eb9b84",
	"gnp70-42/vtmis":        "954517d11194f122",
	"gnp70-43/core/awake":   "c3630a0ebb76f12f",
	"gnp70-43/core/round":   "385dfe0b7e6adad7",
	"gnp70-43/ldtmis/awake": "94c97dbc224c486c",
	"gnp70-43/ldtmis/round": "f415f5e11ae73aa3",
	"gnp70-43/luby":         "524551d623b41c80",
	"gnp70-43/naive":        "d8ae6fe337711c05",
	"gnp70-43/vtcolor":      "a7db0c6b5b8f9a0a",
	"gnp70-43/vtmatch":      "3b8db7fc87e3c7d8",
	"gnp70-43/vtmis":        "7c5781f64dd96ddb",
	"gnp70-44/core/awake":   "eb1cacdab4df2212",
	"gnp70-44/core/round":   "0b76586ebc813d18",
	"gnp70-44/ldtmis/awake": "f50c8aa5f3132c13",
	"gnp70-44/ldtmis/round": "0858bc9f3e38e44e",
	"gnp70-44/luby":         "0f7492c1a8d8bfc9",
	"gnp70-44/naive":        "972b5a8710bc732b",
	"gnp70-44/vtcolor":      "b3d82d383c559d56",
	"gnp70-44/vtmatch":      "7e46e98cd13af8b5",
	"gnp70-44/vtmis":        "ab53621748536560",
	"path/ldtmis/awake":     "7e7045a3416dc4e4",
	"path/ldtmis/round":     "87af87d4b24b193c",
}

// algorithmCases returns every algorithm's step program on the inputs
// the goroutine-form originals were checked on: three G(70, 0.07) graphs running
// all nine programs, a G(60, 0.06) graph running Awake-MIS in both LDT
// variants, and three graphs with several components running LDT-MIS
// in both variants.
func algorithmCases() map[string]algoCase {
	cases := map[string]algoCase{}
	for _, seed := range []int64{42, 43, 44} {
		r := rand.New(rand.NewSource(seed))
		g := graph.GNP(70, 0.07, r)
		n := g.N()
		ids := make([]int, n)
		for v, p := range r.Perm(n) {
			ids[v] = p + 1
		}
		edgeIDs := vtmatch.EdgeIDs{}
		for i, e := range g.Edges() {
			edgeIDs[e] = i + 1
		}
		cfg := sim.Config{Seed: 31, Strict: true}
		bigCfg := sim.Config{Seed: 31, Strict: true, N: 1 << 16, Bandwidth: sim.DefaultBandwidth(1 << 40)}
		bigIDs := rng.IDs40(n, seed)
		np := maxComponent(g)
		prefix := fmt.Sprintf("gnp70-%d/", seed)

		cases[prefix+"naive"] = algoCase{cfg: cfg, g: g,
			out:  func() any { return &naive.Result{InMIS: make([]bool, n)} },
			step: func(o any) sim.StepProgram { return naive.StepProgram(o.(*naive.Result), ids, n) },
		}
		cases[prefix+"luby"] = algoCase{cfg: cfg, g: g,
			out:  func() any { return &luby.Result{InMIS: make([]bool, n)} },
			step: func(o any) sim.StepProgram { return luby.StepProgram(o.(*luby.Result)) },
		}
		cases[prefix+"vtmis"] = algoCase{cfg: cfg, g: g,
			out:  func() any { return &vtmis.Result{InMIS: make([]bool, n)} },
			step: func(o any) sim.StepProgram { return vtmis.StepProgram(o.(*vtmis.Result), ids, n) },
		}
		cases[prefix+"vtcolor"] = algoCase{cfg: cfg, g: g,
			out:  func() any { return &vtcolor.Result{Color: make([]int, n)} },
			step: func(o any) sim.StepProgram { return vtcolor.StepProgram(o.(*vtcolor.Result), ids, n) },
		}
		cases[prefix+"vtmatch"] = algoCase{cfg: cfg, g: g,
			out: func() any {
				r := &vtmatch.Result{MatchedWith: make([]int, n)}
				for i := range r.MatchedWith {
					r.MatchedWith[i] = -1
				}
				return r
			},
			step: func(o any) sim.StepProgram { return vtmatch.StepProgram(o.(*vtmatch.Result), g, edgeIDs) },
		}
		for _, v := range []ldtmis.Variant{ldtmis.VariantAwake, ldtmis.VariantRound} {
			cases[prefix+"core/"+v.String()] = coreCase(g, cfg, v)
			cases[prefix+"ldtmis/"+v.String()] = ldtmisCase(g, bigCfg, bigIDs, np, v)
		}
	}

	g := graph.GNP(60, 0.06, rand.New(rand.NewSource(3)))
	cfg := sim.Config{Seed: 11, Strict: true, Bandwidth: sim.DefaultBandwidth(g.N())}
	for _, v := range []ldtmis.Variant{ldtmis.VariantAwake, ldtmis.VariantRound} {
		cases["gnp60/core/"+v.String()] = coreCase(g, cfg, v)
	}

	for name, g := range map[string]*graph.Graph{
		"cycle": graph.Cycle(24),
		"gnp":   graph.GNP(40, 0.08, rand.New(rand.NewSource(9))), // disconnected w.h.p.
		"path":  graph.Path(17),
	} {
		cfg := sim.Config{Seed: 77, N: 1 << 16, Strict: true, Bandwidth: sim.DefaultBandwidth(1 << 40)}
		ids := rng.IDs40(g.N(), int64(len(name)))
		for _, v := range []ldtmis.Variant{ldtmis.VariantAwake, ldtmis.VariantRound} {
			cases[name+"/ldtmis/"+v.String()] = ldtmisCase(g, cfg, ids, maxComponent(g), v)
		}
	}
	return cases
}

// coreCase is Awake-MIS with default parameters and the given LDT
// variant, scheduled as core.RunContext schedules it.
func coreCase(g *graph.Graph, cfg sim.Config, v ldtmis.Variant) algoCase {
	n := g.N()
	params := core.Params{Variant: v}.WithDefaults(n)
	bandwidth := cfg.Bandwidth
	if bandwidth == 0 {
		bandwidth = sim.DefaultBandwidth(n)
	}
	sched := core.NewSchedule(n, params, bandwidth)
	return algoCase{cfg: cfg, g: g,
		out: func() any { return &core.Result{InMIS: make([]bool, n), Batch: make([]int, n)} },
		step: func(o any) sim.StepProgram {
			return core.StepProgram(o.(*core.Result), sched, params, n)
		},
	}
}

// ldtmisCase is standalone LDT-MIS with the given IDs, component bound
// and LDT variant.
func ldtmisCase(g *graph.Graph, cfg sim.Config, ids []int64, np int, v ldtmis.Variant) algoCase {
	n := g.N()
	return algoCase{cfg: cfg, g: g,
		out: func() any { return &ldtmis.Result{InMIS: make([]bool, n), NewID: make([]int, n)} },
		step: func(o any) sim.StepProgram {
			return ldtmis.StepProgram(o.(*ldtmis.Result), ids, np, v)
		},
	}
}

func maxComponent(g *graph.Graph) int {
	np := 1
	for _, c := range g.Components() {
		np = max(np, len(c))
	}
	return np
}

// digest hashes a run's output and Metrics.
func digest(out any, m *sim.Metrics) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v\n%+v", out, *m)))
	return hex.EncodeToString(sum[:8])
}

// TestStepProgramsMatchReference runs every algorithm's step program
// on the reference simulator and on the stepped engine at one and four
// workers. Outputs and Metrics must be identical on all three, and
// their digest must equal the case's pin.
func TestStepProgramsMatchReference(t *testing.T) {
	engines := []struct {
		name string
		eng  sim.Engine
	}{
		{"reference", sim.NewReferenceEngine()},
		{"stepped-1", sim.NewSteppedEngine(1)},
		{"stepped-4", sim.NewSteppedEngine(4)},
	}
	cases := algorithmCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := cases[name]
		t.Run(name, func(t *testing.T) {
			var refOut any
			var refM *sim.Metrics
			for _, e := range engines {
				out := c.out()
				m, err := e.eng.Run(context.Background(), c.g, c.step(out), c.cfg)
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				if refOut == nil {
					refOut, refM = out, m
					continue
				}
				if !reflect.DeepEqual(refOut, out) {
					t.Fatalf("%s: output diverges from the reference", e.name)
				}
				if !reflect.DeepEqual(refM, m) {
					t.Fatalf("%s: metrics diverge from the reference:\n%+v\nvs\n%+v", e.name, refM, m)
				}
			}
			if got, want := digest(refOut, refM), algorithmPins[name]; got != want {
				t.Errorf("digest %s, pinned %s", got, want)
			}
		})
	}
}
