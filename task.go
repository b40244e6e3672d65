package awakemis

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"awakemis/internal/sim"
	"awakemis/internal/trace"
	"awakemis/internal/verify"
)

// Task is one registered problem: a name, an ID-assignment scheme, a
// run function, and an output verifier. Every public entry point —
// RunTask, Run, RunMIS, Runner.RunBatch, and both CLIs — dispatches
// through the task registry, so adding a problem means registering a
// Task, not editing the facade.
type Task struct {
	// Name identifies the task ("awake-mis", "coloring", ...).
	Name string
	// Kind is the problem family ("mis", "coloring", or "matching"),
	// which also names the Output field the task fills.
	Kind string
	// Summary is a one-line description with the paper reference.
	Summary string
	// IDScheme documents how the task derives per-node (or per-edge)
	// identifiers from Options.Seed.
	IDScheme string

	// rank orders the canonical task listing: the paper's MIS algorithms
	// first, then the §7 extensions.
	rank int
	// run executes the task; cfg is already resolved from opt.
	run func(ctx context.Context, g *Graph, opt Options, cfg sim.Config) (Output, *sim.Metrics, error)
	// verify checks the task's output against its oracle.
	verify func(g *Graph, out Output) error
	// checkParams checks opt.Params for a run on a graph of nodes
	// nodes; it is nil for the tasks that ignore Params.
	checkParams func(opt Options, nodes int) error
}

// taskRegistry holds every registered task, keyed by name. Tasks are
// registered from per-algorithm shim files (task_*.go) at init time.
var taskRegistry = map[string]*Task{}

// registerTask adds a task to the registry; shim files call it from
// init. Registering an incomplete or duplicate task is a programming
// error, caught at startup.
func registerTask(t Task) {
	switch {
	case t.Name == "" || t.Kind == "" || t.run == nil || t.verify == nil:
		panic(fmt.Sprintf("awakemis: incomplete task registration %+v", t))
	case taskRegistry[t.Name] != nil:
		panic("awakemis: duplicate task " + t.Name)
	}
	taskRegistry[t.Name] = &t
}

// Tasks returns every registered task in canonical order.
func Tasks() []Task {
	out := make([]Task, 0, len(taskRegistry))
	for _, t := range taskRegistry {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].rank != out[j].rank {
			return out[i].rank < out[j].rank
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TaskNames returns the registered task names in canonical order.
func TaskNames() []string {
	ts := Tasks()
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return names
}

// TaskByName looks a task up by name.
func TaskByName(name string) (Task, bool) {
	t, ok := taskRegistry[name]
	if !ok {
		return Task{}, false
	}
	return *t, true
}

// RunTask executes the named task on g and returns its Report. The
// output is always checked against the task's verification oracle
// before returning (a violation — possible only if a high-probability
// event failed — is reported as an error).
func RunTask(g *Graph, task string, opt Options) (*Report, error) {
	return RunTaskContext(context.Background(), g, task, opt)
}

// RunTaskContext is RunTask under a context: cancellation or a missed
// deadline aborts the simulation at the next round boundary and
// returns an error wrapping ctx.Err(). It is the registry dispatch
// shared by every entry point.
func RunTaskContext(ctx context.Context, g *Graph, task string, opt Options) (*Report, error) {
	cfg := opt.simConfig()
	t, ok := taskRegistry[task]
	if !ok {
		return nil, fmt.Errorf("awakemis: unknown task %q (have %s)",
			task, strings.Join(TaskNames(), "|"))
	}
	obs := &simObserver{user: opt.Observer}
	if opt.Trace {
		obs.trace = trace.NewCollector()
	}
	if opt.RoundSummary {
		obs.acc = &roundSummaryAcc{}
	}
	if obs.user != nil || obs.trace != nil || obs.acc != nil {
		cfg.Observer = obs
	}
	start := time.Now()
	out, m, err := t.run(ctx, g, opt, cfg)
	if err != nil {
		return nil, fmt.Errorf("awakemis: %s: %w", task, err)
	}
	if verr := t.verify(g, out); verr != nil {
		return nil, fmt.Errorf("awakemis: %s produced invalid output (failed w.h.p. event): %w", task, verr)
	}
	rep := &Report{
		Task:     task,
		Engine:   string(EngineStepped),
		Seed:     opt.Seed,
		Graph:    statsOf(g),
		Metrics:  fromSim(m),
		Output:   out,
		Verified: true,
		WallMS:   float64(time.Since(start)) / float64(time.Millisecond),
		traced:   traced{obs.trace},
	}
	if obs.acc != nil {
		rep.RoundSummary = obs.acc.summary()
	}
	return rep, nil
}

// verifyMIS is the output oracle shared by every MIS task.
func verifyMIS(g *Graph, out Output) error {
	return verify.CheckMIS(g.internal(), out.InMIS)
}
