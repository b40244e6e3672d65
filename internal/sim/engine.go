package sim

import (
	"context"

	"awakemis/internal/graph"
)

// Engine executes a step program over a graph. The stepped engine is
// the one implementation; the interface is the seam through which the
// tests run the same programs on the reference simulator in
// reference_test.go. Implementations must honor the package's
// determinism contract: identical (graph, program, Config.Seed) runs
// produce identical Metrics and per-node outputs.
type Engine interface {
	// Run executes prog on every node of g under cfg. cfg.Engine is
	// ignored (the receiver runs the program). Engines poll ctx at every
	// round boundary: once it is cancelled or past its deadline, Run
	// stops the simulation and returns an error wrapping ctx.Err().
	Run(ctx context.Context, g *graph.Graph, prog StepProgram, cfg Config) (*Metrics, error)
}

// defaultEngine runs every Config whose Engine is nil: the stepped
// engine, its pool sized from runtime.GOMAXPROCS(0) at the start of
// each run.
var defaultEngine Engine = NewSteppedEngine(0)
