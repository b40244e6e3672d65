package main

import (
	"context"
	"fmt"
	"time"
)

// workload is one closed loop over a fixed op list: each op starts
// when the previous one has finished.
type workload interface {
	// count is the number of timed ops in one pass.
	count() int
	// op runs op i of the list (-1 is the untimed warm-up copy of op
	// 0), keeps its outputs for check, and returns its wall time. With
	// a non-nil tr it records the op's spans.
	op(ctx context.Context, i int, tr *tracer) time.Duration
	// after runs the untimed work that follows timed op i of a pass.
	after(ctx context.Context, i int)
	// check verifies the outputs kept since the last call.
	check(c *checker, tr *tracer)
	// latencies returns the request-class latencies of the untraced
	// pass.
	latencies() latencies
	// layers adds the workload's own per-layer metrics of the traced
	// pass to m.
	layers(ctx context.Context, c *checker, tr *tracer, m map[string]float64)
	// sessions returns the daemon-side counts of each timed session.
	sessions() []sessionCounts
}

// run is one invocation: the warm-up op, a timed pass, for -trace 1 a
// traced pass of the same ops, and the output checks.
func run(cfg config) (*record, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	chk, err := newChecker(cfg)
	if err != nil {
		return nil, err
	}
	rec := &record{Config: cfg, Host: hostInfo()}
	var w workload
	if cfg.Workload == "service" {
		w = newServiceLoad(cfg, "service")
	} else {
		w = newLibrary(cfg)
	}
	ctx := context.Background()

	w.op(ctx, -1, nil)
	setup := time.Since(processStart)
	// The speed index runs after setup_s is read, so that setup_s holds
	// only the program's own start.
	rec.Host.CalibStartMS = calibrate()
	plain := runPass(ctx, w, nil)
	rec.OpMS = plain.ms

	var m map[string]metric
	if cfg.Trace {
		tr := newTracer()
		w.check(chk, tr)
		traced := runPass(ctx, w, tr)
		rec.TracedMS = traced.ms
		w.check(chk, tr)
		m = layerMetrics(ctx, w, chk, tr, plain, traced, rec)
		rec.Spans = tr.spans
	} else {
		lat := w.latencies()
		w.check(chk, nil)
		m = endToEnd(setup, plain, lat, chk)
		rec.Samples = map[string]int{"ops": len(plain.ms), "hit": len(lat.hit), "store_hit": len(lat.storeHit), "cold": len(lat.cold)}
	}
	rec.Sessions = w.sessions()
	rec.Host.CalibEndMS = calibrate()
	if cfg.Trace {
		m["host.calib_ms"] = metric{(rec.Host.CalibStartMS + rec.Host.CalibEndMS) / 2, "ms"}
	}
	rec.Summary = summary{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m}
	rec.Problems = chk.problems
	if cfg.WriteRef != "" {
		if chk.failed > 0 {
			return nil, fmt.Errorf("not recording reference digests from a run with failed ops (first: %s)", chk.problems[0])
		}
		if err := chk.writeReference(cfg.WriteRef); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// pass is one run through the op list, with the process counters read
// around each timed op. The timed phase is the sum of the op windows.
type pass struct {
	ms   []float64
	used spent
}

func runPass(ctx context.Context, w workload, tr *tracer) pass {
	var p pass
	for i := range w.count() {
		before := readUsage()
		d := w.op(ctx, i, tr)
		p.used.add(before, readUsage())
		p.ms = append(p.ms, millis(d))
		w.after(ctx, i)
	}
	return p
}

// endToEnd computes the metrics a user of the system sees, from the
// untraced timed pass.
func endToEnd(setup time.Duration, p pass, lat latencies, c *checker) map[string]metric {
	ops := float64(len(p.ms))
	return map[string]metric{
		"op_p50_ms":        {median(p.ms), "ms"},
		"ops_per_s":        {ops / p.used.wall.Seconds(), "1/s"},
		"cpu_ms_per_op":    {millis(p.used.cpu) / ops, "ms"},
		"alloc_mb_per_op":  {float64(p.used.alloc) / ops / (1 << 20), "MiB"},
		"setup_s":          {setup.Seconds(), "s"},
		"ok_ratio":         {1 - float64(c.failed)/float64(c.attempted), "1"},
		"peak_rss_mb":      {float64(readUsage().maxRSS) / 1024, "MiB"},
		"hit_p50_ms":       {median(lat.hit), "ms"},
		"hit_p99_ms":       {quantile(lat.hit, 0.99), "ms"},
		"store_hit_p50_ms": {median(lat.storeHit), "ms"},
		"cold_p50_ms":      {median(lat.cold), "ms"},
	}
}

// perLayer lists the per-layer metrics, in BENCHMARK.json order, with
// their units. A layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"graph.build_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.rounds_ms", "ms"},
	{"sim.setup_ms", "ms"},
	{"sim.executed_rounds", "count"},
	{"sim.messages", "count"},
	{"sim.delivered_ratio", "1"},
	{"gc.cycles_per_op", "count"},
	{"gc.pause_ms_per_op", "ms"},
	{"gc.cpu_fraction", "1"},
	{"verify.ms", "ms"},
	{"report.encode_ms", "ms"},
	{"report.bytes", "B"},
	{"study.expand_ms", "ms"},
	{"study.aggregate_ms", "ms"},
	{"service.hash_ms", "ms"},
	{"service.submit_hit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.engine_runs", "count"},
	{"service.lanes_vectorized", "count"},
	{"service.cache_hit_ratio", "1"},
	{"store.get_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.record_bytes", "B"},
	{"client.submit_ms", "ms"},
	{"client.wait_ms", "ms"},
	{"client.decode_ms", "ms"},
	{"host.calib_ms", "ms"},
	{"trace.overhead_ratio", "1"},
	{"trace.op_p50_ms", "ms"},
	{"trace.untraced_op_p50_ms", "ms"},
	{"trace.self_sum_ms", "ms"},
	{"self.op_ms", "ms"},
	{"self.graph_ms", "ms"},
	{"self.facade_ms", "ms"},
	{"self.sim_ms", "ms"},
	{"self.report_ms", "ms"},
	{"self.client_ms", "ms"},
	{"self.service_ms", "ms"},
	{"self.store_ms", "ms"},
}

// layerMetrics computes the per-layer metrics of the traced pass, its
// self-time roll-up, and the tracing overhead against the untraced
// pass.
func layerMetrics(ctx context.Context, w workload, c *checker, tr *tracer, plain, traced pass, rec *record) map[string]metric {
	v := map[string]float64{}
	w.layers(ctx, c, tr, v)
	ops := float64(len(traced.ms))
	u := traced.used
	v["gc.cycles_per_op"] = float64(u.gcs) / ops
	v["gc.pause_ms_per_op"] = float64(u.pauseNS) / 1e6 / ops
	v["gc.cpu_fraction"] = ratio(u.gcCPU, u.allCPU)
	v["verify.ms"] = tr.meanMS("verify.check")
	self, nops := tr.selfByLayer()
	rec.SelfMS = map[string]float64{}
	for layer, d := range self {
		ms := millis(d) / float64(max(nops, 1))
		rec.SelfMS[layer] = ms
		v["self."+layer+"_ms"] = ms
		v["trace.self_sum_ms"] += ms
	}
	v["trace.op_p50_ms"] = median(traced.ms)
	v["trace.untraced_op_p50_ms"] = median(plain.ms)
	v["trace.overhead_ratio"] = ratio(median(traced.ms), median(plain.ms))
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{v[l.name], l.unit}
	}
	return m
}
