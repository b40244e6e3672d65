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
	// Name identifies the engine ("stepped").
	Name() string
	// Run executes prog on every node of g under cfg. cfg.Engine is
	// ignored (the receiver runs the program). Engines poll ctx at every
	// round boundary: once it is cancelled or past its deadline, Run
	// stops the simulation and returns an error wrapping ctx.Err().
	Run(ctx context.Context, g *graph.Graph, prog StepProgram, cfg Config) (*Metrics, error)
}

var defaultEngine Engine = NewSteppedEngine(0)

// Default returns the engine RunStep uses when Config.Engine is nil:
// the stepped engine with one worker per CPU.
func Default() Engine { return defaultEngine }

func engineOf(cfg Config) Engine {
	if cfg.Engine != nil {
		return cfg.Engine
	}
	return defaultEngine
}
