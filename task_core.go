package awakemis

import (
	"context"
	"fmt"

	"awakemis/internal/core"
	"awakemis/internal/ldtmis"
	"awakemis/internal/sim"
)

// Registration shim for internal/core: the paper's headline Awake-MIS
// algorithm (Theorem 13) and its Corollary 14 variant, which runs on
// Appendix A's deterministic LDT construction and reproduces
// Corollary 14's O(log log n · log* n) awake bound. It saves no rounds
// here: at n = 256–16,384 it takes about 3.64 times awake-mis's rounds.
func init() {
	registerTask(Task{
		Name:     string(AwakeMIS),
		Kind:     "mis",
		Summary:  "O(log log n)-awake MIS, the paper's main result (Theorem 13)",
		IDScheme: "anonymous: per-node randomness only, random poly(N) IDs drawn internally",
		rank:     0,
		run:      runAwakeMIS(ldtmis.VariantAwake),
		verify:   verifyMIS,

		checkParams: checkAwakeMIS(ldtmis.VariantAwake),
	})
	registerTask(Task{
		Name:     string(AwakeMISRound),
		Kind:     "mis",
		Summary:  "Awake-MIS on the deterministic LDT construction (Corollary 14)",
		IDScheme: "anonymous: per-node randomness only, random poly(N) IDs drawn internally",
		rank:     1,
		run:      runAwakeMIS(ldtmis.VariantRound),
		verify:   verifyMIS,

		checkParams: checkAwakeMIS(ldtmis.VariantRound),
	})
}

// awakeMISParams returns the Params a task runs: the round variant's
// task always runs the round variant.
func awakeMISParams(params core.Params, variant ldtmis.Variant) core.Params {
	if variant == ldtmis.VariantRound {
		params.Variant = ldtmis.VariantRound
	}
	return params
}

func runAwakeMIS(variant ldtmis.Variant) func(context.Context, *Graph, Options, sim.Config) (Output, *sim.Metrics, error) {
	return func(ctx context.Context, g *Graph, opt Options, cfg sim.Config) (Output, *sim.Metrics, error) {
		res, m, err := core.RunContext(ctx, g.internal(), awakeMISParams(opt.Params, variant), cfg)
		if err != nil {
			return Output{}, m, err
		}
		return Output{InMIS: res.InMIS}, m, nil
	}
}

// checkAwakeMIS range-checks the Params a spec gives the task, and
// rejects those whose timetable would run past the engine's default
// round cap, which a run would otherwise hit as an engine error.
func checkAwakeMIS(variant ldtmis.Variant) func(Options, int) error {
	return func(opt Options, nodes int) error {
		if err := opt.Params.Check(); err != nil {
			return err
		}
		n := opt.N
		if n == 0 {
			n = nodes
		}
		if !core.ScheduleFits(n, awakeMISParams(opt.Params, variant), opt.Bandwidth) {
			return fmt.Errorf("the schedule at N=%d spans more than 2^40 rounds, the engine's round cap", n)
		}
		return nil
	}
}
