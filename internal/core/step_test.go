package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"awakemis/internal/core"
	"awakemis/internal/graph"
	"awakemis/internal/ldtmis"
	"awakemis/internal/sim"
)

// TestStepFormMatchesGoroutineForm is the port-faithfulness check for
// Awake-MIS, for both LDT variants: the step program's output and
// Metrics must be identical at one and four workers, and their digest
// must equal the one the goroutine-form original produced on the same
// input (the pins in internal/sim's algorithms_test.go, which also run
// these inputs on the reference simulator).
func TestStepFormMatchesGoroutineForm(t *testing.T) {
	pins := map[ldtmis.Variant]string{
		ldtmis.VariantAwake: "5e1675296b2d0eaf",
		ldtmis.VariantRound: "933537c913d571b5",
	}
	g := graph.GNP(60, 0.06, rand.New(rand.NewSource(3)))
	for _, variant := range []ldtmis.Variant{ldtmis.VariantAwake, ldtmis.VariantRound} {
		t.Run(variant.String(), func(t *testing.T) {
			n := g.N()
			params := core.Params{Variant: variant}.WithDefaults(n)
			cfg := sim.Config{Seed: 11, Strict: true, Bandwidth: sim.DefaultBandwidth(n)}
			sched := core.NewSchedule(n, params, cfg.Bandwidth)

			var refRes *core.Result
			var refM *sim.Metrics
			for _, workers := range []int{1, 4} {
				res := &core.Result{InMIS: make([]bool, n), Batch: make([]int, n)}
				m, err := sim.NewSteppedEngine(workers).Run(context.Background(), g, core.StepProgram(res, sched, params, n), cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if refRes == nil {
					refRes, refM = res, m
					continue
				}
				if !reflect.DeepEqual(refRes, res) || !reflect.DeepEqual(refM, m) {
					t.Fatalf("workers=%d: run diverges from workers=1", workers)
				}
			}
			sum := sha256.Sum256([]byte(fmt.Sprintf("%+v\n%+v", refRes, *refM)))
			if got := hex.EncodeToString(sum[:8]); got != pins[variant] {
				t.Errorf("digest %s, goroutine original %s", got, pins[variant])
			}
		})
	}
}
