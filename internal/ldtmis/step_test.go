package ldtmis_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"awakemis/internal/graph"
	"awakemis/internal/ldtmis"
	"awakemis/internal/rng"
	"awakemis/internal/sim"
)

// TestStepFormMatchesGoroutineForm is the port-faithfulness check for
// the LDT-MIS pipeline, for both LDT constructions, on graphs with
// several components: the step program's output and Metrics must be
// identical at one and four workers, and their digest must equal the
// one the goroutine-form original produced on the same input (the pins
// in internal/sim's algorithms_test.go, which also run these inputs on
// the reference simulator).
func TestStepFormMatchesGoroutineForm(t *testing.T) {
	pins := map[string]string{
		"cycle/awake": "458937070ff807cd",
		"cycle/round": "2b91a5dd97e905ac",
		"gnp/awake":   "8b9fb21f28a4b1d2",
		"gnp/round":   "213b4dda03b4606f",
		"path/awake":  "7e7045a3416dc4e4",
		"path/round":  "87af87d4b24b193c",
	}
	graphs := map[string]*graph.Graph{
		"cycle": graph.Cycle(24),
		"gnp":   graph.GNP(40, 0.08, rand.New(rand.NewSource(9))), // disconnected w.h.p.
		"path":  graph.Path(17),
	}
	for gname, g := range graphs {
		np := 0
		for _, c := range g.Components() {
			np = max(np, len(c))
		}
		ids := rng.IDs40(g.N(), int64(len(gname)))
		for _, variant := range []ldtmis.Variant{ldtmis.VariantAwake, ldtmis.VariantRound} {
			name := gname + "/" + variant.String()
			t.Run(name, func(t *testing.T) {
				cfg := sim.Config{Seed: 77, N: 1 << 16, Strict: true}
				cfg.Bandwidth = sim.DefaultBandwidth(1 << 40)

				var refRes *ldtmis.Result
				var refM *sim.Metrics
				for _, workers := range []int{1, 4} {
					res := &ldtmis.Result{InMIS: make([]bool, g.N()), NewID: make([]int, g.N())}
					m, err := sim.NewSteppedEngine(workers).Run(context.Background(), g, ldtmis.StepProgram(res, ids, np, variant), cfg)
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
				if got := hex.EncodeToString(sum[:8]); got != pins[name] {
					t.Errorf("digest %s, goroutine original %s", got, pins[name])
				}
			})
		}
	}
}
