package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"awakemis"
)

// library is the flagship and big-graph workload: awakemis.Run plus
// json.Marshal of the Report, as a user of the library runs a spec,
// over a fixed list of (graph seed, run seed) pairs cycled in order.
type library struct {
	name    string
	specs   []awakemis.Spec
	ops     int
	corrupt int
	outs    []libOut
	sim     simTotals
	// probe supplies the request-class latencies: the library makes no
	// requests of its own.
	probe  *serviceLoad
	probed int // probe sessions run so far
}

// libOut is one op's output, kept for check.
type libOut struct {
	spec     int
	label    string
	data     []byte
	inMIS    []bool
	verified bool
	err      error
}

// simTotals sums the traced ops' round observers and report sizes.
type simTotals struct {
	ops                     int
	rounds, sent, delivered int64
	roundsNS, runNS         int64
	reportBytes             int64
}

func newLibrary(cfg config) *library {
	// An op's nominal cost on the reference host turns -seconds into a
	// fixed op count.
	task, n, pairs, nominal := "awake-mis", 1<<14, 6, 0.55
	if cfg.Workload == "big-graph" {
		task, n, pairs, nominal = "luby", 1<<20, 3, 3.9
	}
	ops := max(1, int(math.Round(float64(cfg.Seconds)/nominal)))
	if cfg.Size == "tiny" {
		n, pairs, ops = 256, 1, 1
	}
	l := &library{name: cfg.Workload, ops: ops, corrupt: cfg.Corrupt, probe: newServiceLoad(cfg, "probe")}
	for i := range pairs {
		l.specs = append(l.specs, awakemis.Spec{
			Name:    fmt.Sprintf("%s/%d", cfg.Workload, i),
			Task:    task,
			Graph:   awakemis.GraphSpec{Family: "gnp", N: n, Seed: seedFor(cfg.Seed, cfg.Workload+"/graph", i)},
			Options: awakemis.Options{Seed: seedFor(cfg.Seed, cfg.Workload+"/run", i)},
		})
	}
	return l
}

func (l *library) count() int { return l.ops }

func (l *library) op(ctx context.Context, i int, tr *tracer) time.Duration {
	k := max(i, 0) % len(l.specs)
	var rep *awakemis.Report
	var data []byte
	var err error
	start := time.Now()
	if tr == nil {
		rep, err = awakemis.Run(ctx, l.specs[k])
		if err == nil {
			data, err = json.Marshal(rep)
		}
	} else {
		rep, data, err = l.traced(ctx, l.specs[k], tr)
	}
	wall := time.Since(start)
	out := libOut{spec: k, label: opLabel(i, tr), data: data, err: err}
	if err == nil {
		out.verified, out.inMIS = rep.Verified, rep.Output.InMIS
		if i >= 0 && i == l.corrupt {
			l.corrupt = -1
			out.data, out.err = corrupt(rep)
		}
	}
	l.outs = append(l.outs, out)
	return wall
}

// traced runs the op as Run composes it — Spec.Validate, Generate,
// RunTaskContext, the spec's name — one layer call at a time with a
// round observer attached, then encodes the Report. The Report is the
// one Run returns, so the check holds it to the same digest.
func (l *library) traced(ctx context.Context, spec awakemis.Spec, tr *tracer) (*awakemis.Report, []byte, error) {
	root := tr.beginOp()
	defer tr.endOp(root)
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	sp := tr.begin("graph.generate", root)
	g, err := generate(spec.Graph)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	obs := &roundObserver{}
	opt := spec.Options
	opt.Observer = obs
	runStart := time.Now()
	sp = tr.add("facade.run_task", root, runStart, time.Time{})
	rep, err := awakemis.RunTaskContext(ctx, g, spec.Task, opt)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	// The observer's first and last rounds split the call into the
	// engine's setup before round 0, its rounds, and the facade's own
	// remainder: result extraction, verification, Report assembly.
	first, last := obs.first, obs.last
	if obs.rounds == 0 {
		first, last = runStart, runStart
	}
	tr.add("sim.setup", sp, runStart, first)
	tr.add("sim.rounds", sp, first, last)
	rep.Name = spec.Name
	sp = tr.begin("report.encode", root)
	data, err := json.Marshal(rep)
	tr.end(sp)
	l.sim.add(obs, last.Sub(runStart), len(data))
	return rep, data, err
}

// roundObserver sums one run's per-round stats and notes when its
// first round started and its last round ended.
type roundObserver struct {
	rounds, sent, delivered, elapsedNS int64
	first, last                        time.Time
}

func (o *roundObserver) ObserveRound(st awakemis.RoundStat) {
	now := time.Now()
	if o.rounds == 0 {
		o.first = now.Add(-time.Duration(st.ElapsedNS))
	}
	o.last = now
	o.rounds++
	o.sent += st.Sent
	o.delivered += st.Delivered
	o.elapsedNS += st.ElapsedNS
}

func (s *simTotals) add(o *roundObserver, run time.Duration, reportBytes int) {
	s.ops++
	s.rounds += o.rounds
	s.sent += o.sent
	s.delivered += o.delivered
	s.roundsNS += o.elapsedNS
	s.runNS += int64(run)
	s.reportBytes += int64(reportBytes)
}

func (l *library) check(c *checker, tr *tracer) {
	for _, o := range l.outs {
		key := fmt.Sprintf("%s/%d", l.name, o.spec)
		var errs []error
		switch {
		case o.err != nil:
			errs = append(errs, o.err)
		case !o.verified:
			errs = append(errs, errors.New("the report is not verified"))
		default:
			errs = collect(errs, c.same(key, o.data))
			if c.once(key) {
				errs = collect(errs, verifyMIS(l.specs[o.spec].Graph, o.inMIS, tr))
			}
		}
		c.op(l.name+" "+o.label, errs)
	}
	l.outs = nil
	// The probe's checks stay untraced: verify.ms is the library ops'.
	l.probe.check(c, nil)
}

// probeSessions is about how many probe sessions a pass spreads over
// its ops. Spread over the whole pass, their request latencies sample
// the host as long as the ops do; a block of sessions at the end of the
// pass spread 20–27% across runs, with the host's speed.
const probeSessions = 6

// after runs a probe session, untimed, after every few timed ops. It
// collects the heap and returns its free memory to the OS first, so
// every session starts from the same heap and resident set whatever the
// op before it left, and the next op starts as an op in a fresh
// awakemis process does.
func (l *library) after(ctx context.Context, i int) {
	if (i+1)%max(1, l.ops/probeSessions) != 0 {
		return
	}
	debug.FreeOSMemory()
	l.probe.op(ctx, l.probed, nil)
	l.probed++
}

// latencies returns the probe sessions' request latencies.
func (l *library) latencies() latencies { return l.probe.lat }

func (l *library) layers(_ context.Context, _ *checker, tr *tracer, m map[string]float64) {
	s := l.sim
	ops := float64(max(s.ops, 1))
	m["graph.build_ms"] = tr.meanMS("graph.generate")
	m["sim.run_ms"] = float64(s.runNS) / 1e6 / ops
	m["sim.rounds_ms"] = float64(s.roundsNS) / 1e6 / ops
	m["sim.setup_ms"] = m["sim.run_ms"] - m["sim.rounds_ms"]
	m["sim.executed_rounds"] = float64(s.rounds) / ops
	m["sim.messages"] = float64(s.sent) / ops
	m["sim.delivered_ratio"] = ratio(float64(s.delivered), float64(s.sent))
	m["report.encode_ms"] = tr.meanMS("report.encode")
	m["report.bytes"] = float64(s.reportBytes) / ops
}

func (l *library) sessions() []sessionCounts { return nil }
