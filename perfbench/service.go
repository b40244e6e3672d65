package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"awakemis"
	"awakemis/client"
	"awakemis/internal/service"
	"awakemis/internal/store"
)

// serviceLoad is the service workload, and the request probe of the
// library workloads. One op is a session against fresh in-process
// daemons — service.New over a fresh store directory, served on a
// loopback listener — driven through the client package.
type serviceLoad struct {
	name    string // "service", or "probe" for the library workloads' probe
	sc      script
	study   awakemis.StudySpec
	trials  []awakemis.Spec // the study's expansion, in Specs order
	cold    []awakemis.Spec
	stores  string // parent of the sessions' store directories
	n       int    // timed sessions
	corrupt int
	outs    []*sessionOut
	lat     latencies       // of the untraced timed sessions
	counts  []sessionCounts // of every timed session
	// The latest session's trial reports, raw and decoded.
	last     [][]byte
	lastReps []*awakemis.Report
}

// script sizes one session.
type script struct {
	sizes      []int // the study's n-sweep
	trials     int   // trials per study cell
	hitRepeats int   // times each trial spec is requested again
	coldN      int   // graph size of the cold jobs
	cold       int   // number of cold jobs
}

// scripts holds the session script by size and role. A full service
// session makes 128 memory hits, so the 8 or more sessions of a run
// give hit_p99_ms at least 1,024 samples; a probe session makes 1,024.
var scripts = map[string]script{
	"full/service": {sizes: []int{1024, 4096}, trials: 4, hitRepeats: 8, coldN: 1024, cold: 4},
	"full/probe":   {sizes: []int{256, 512}, trials: 8, hitRepeats: 32, coldN: 256, cold: 16},
	"tiny/service": {sizes: []int{128, 256}, trials: 2, hitRepeats: 2, coldN: 256, cold: 2},
	"tiny/probe":   {sizes: []int{128, 256}, trials: 2, hitRepeats: 2, coldN: 256, cold: 2},
}

func newServiceLoad(cfg config, name string) *serviceLoad {
	sc := scripts[cfg.Size+"/"+name]
	s := &serviceLoad{name: name, sc: sc, stores: filepath.Join(cfg.Work, "stores"), n: 1, corrupt: -1}
	if name == "service" {
		s.corrupt = cfg.Corrupt
		if cfg.Size == "full" {
			// A session takes ~0.8 s on the reference host.
			s.n = max(8, int(math.Round(float64(cfg.Seconds)/0.8)))
		}
	}
	s.study = awakemis.StudySpec{
		Name:     name,
		Tasks:    []string{"awake-mis", "luby"},
		Families: []awakemis.GraphSpec{{Family: "gnp"}},
		Sizes:    sc.sizes,
		Trials:   sc.trials,
		Seed:     seedFor(cfg.Seed, name+"/study", 0),
	}
	s.trials = s.study.Specs()
	for i := range sc.cold {
		s.cold = append(s.cold, awakemis.Spec{
			Name:    fmt.Sprintf("%s/cold/%d", name, i),
			Task:    "awake-mis",
			Graph:   awakemis.GraphSpec{Family: "gnp", N: sc.coldN, Seed: seedFor(cfg.Seed, name+"/cold-graph", i)},
			Options: awakemis.Options{Seed: seedFor(cfg.Seed, name+"/cold-run", i)},
		})
	}
	return s
}

// sessionOut is one session's outputs and latency samples (ms), kept
// for check.
type sessionOut struct {
	label                  string
	err                    error
	problems               []error // wrong bytes seen inside the session
	artifact               []byte
	trials                 [][]byte
	trialReps              []*awakemis.Report
	cold                   [][]byte
	coldReps               []*awakemis.Report
	hit, storeHit, coldLat []float64
	counts                 sessionCounts
}

// sessionCounts are one session's daemon-side counters, summed over
// its two daemons.
type sessionCounts struct {
	Traced          bool    `json:"traced,omitempty"`
	StudyLanes      int     `json:"study_lanes"`
	LanesVectorized int     `json:"lanes_vectorized"`
	EngineRuns      int64   `json:"engine_runs"`
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
	RoundsSimulated int64   `json:"rounds_simulated"`
	SimSeconds      float64 `json:"sim_seconds"`
	QueueWaitSum    float64 `json:"queue_wait_seconds_sum"`
	QueueWaits      int64   `json:"queue_waits"`
	// MessagesSent sums Metrics.MessagesSent over the Reports of the
	// session's engine runs: its study trials and cold jobs.
	MessagesSent int64 `json:"messages_sent"`
}

func (s *serviceLoad) count() int { return s.n }

func (s *serviceLoad) op(ctx context.Context, i int, tr *tracer) time.Duration {
	out := &sessionOut{label: opLabel(i, tr)}
	out.counts.Traced = tr != nil
	out.counts.StudyLanes = len(s.trials)
	start := time.Now()
	root := tr.beginOp()
	out.err = s.session(ctx, tr, root, out)
	tr.endOp(root)
	wall := time.Since(start)
	if i >= 0 {
		s.counts = append(s.counts, out.counts)
		if tr == nil {
			s.lat.hit = append(s.lat.hit, out.hit...)
			s.lat.storeHit = append(s.lat.storeHit, out.storeHit...)
			s.lat.cold = append(s.lat.cold, out.coldLat...)
		}
	}
	if out.err == nil {
		s.last, s.lastReps = out.trials, out.trialReps
		if i >= 0 && i == s.corrupt {
			s.corrupt = -1
			out.cold[0], out.err = corrupt(out.coldReps[0])
		}
	}
	s.outs = append(s.outs, out)
	return wall
}

// session runs the fixed script against two fresh daemons that share
// one store directory.
func (s *serviceLoad) session(ctx context.Context, tr *tracer, root int, out *sessionOut) error {
	if err := os.MkdirAll(s.stores, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(s.stores, "session-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// 1. One study, followed over SSE to its artifact.
	d1, err := startDaemon(dir, tr, root)
	if err != nil {
		return err
	}
	defer d1.stop(ctx)
	sp := tr.begin("client.submit", root)
	st, err := d1.cl.SubmitStudy(ctx, s.study)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("submitting the study: %w", err)
	}
	if !st.Status.Terminal() {
		sp = tr.begin("client.wait", root)
		st, err = d1.cl.WaitStudy(ctx, st.ID, nil)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("waiting for the study: %w", err)
		}
	}
	if st.Status != client.JobDone {
		return fmt.Errorf("study %s ended %s: %s", st.ID, st.Status, st.Error)
	}
	sp = tr.begin("client.decode", root)
	_, err = st.DecodeResult()
	tr.end(sp)
	if err != nil {
		return err
	}
	out.artifact = st.Result
	if st.Progress != nil {
		out.counts.LanesVectorized = st.Progress.LanesVectorized
	}

	// 2. Every trial spec requested again, hitRepeats times: memory hits.
	out.trials = make([][]byte, len(s.trials))
	out.trialReps = make([]*awakemis.Report, len(s.trials))
	for r := range s.sc.hitRepeats {
		for i, spec := range s.trials {
			start := time.Now()
			raw, rep, cached, err := request(ctx, d1.cl, spec, tr, root)
			out.hit = append(out.hit, millis(time.Since(start)))
			switch {
			case err != nil:
				return err
			case !cached:
				return fmt.Errorf("%s: a repeated request missed the cache", spec.Name)
			case r == 0:
				out.trials[i], out.trialReps[i] = raw, rep
			case !bytes.Equal(raw, out.trials[i]):
				out.problems = append(out.problems, fmt.Errorf("%s: cache hit %d returned other bytes", spec.Name, r))
			}
		}
	}
	if err := d1.collect(&out.counts); err != nil {
		return err
	}
	sp = tr.begin("service.stop", root)
	err = d1.stop(ctx)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("stopping the first daemon: %w", err)
	}

	// 3. A second daemon over the reopened store: one store hit per spec.
	d2, err := startDaemon(dir, tr, root)
	if err != nil {
		return err
	}
	defer d2.stop(ctx)
	for i, spec := range s.trials {
		start := time.Now()
		raw, _, cached, err := request(ctx, d2.cl, spec, tr, root)
		out.storeHit = append(out.storeHit, millis(time.Since(start)))
		switch {
		case err != nil:
			return err
		case !cached:
			return fmt.Errorf("%s: not served from the reopened store", spec.Name)
		case !bytes.Equal(raw, out.trials[i]):
			out.problems = append(out.problems, fmt.Errorf("%s: the store returned other bytes", spec.Name))
		}
	}

	// 4. Cold jobs: queue wait, an engine run under the daemon's
	// observer, encoding; the worker writes the store afterwards.
	out.cold = make([][]byte, len(s.cold))
	out.coldReps = make([]*awakemis.Report, len(s.cold))
	for i, spec := range s.cold {
		start := time.Now()
		raw, rep, cached, err := request(ctx, d2.cl, spec, tr, root)
		out.coldLat = append(out.coldLat, millis(time.Since(start)))
		if err != nil {
			return err
		}
		if cached {
			return fmt.Errorf("%s: a cold job was served from cache", spec.Name)
		}
		out.cold[i], out.coldReps[i] = raw, rep
	}
	for _, rep := range append(slices.Clone(out.trialReps), out.coldReps...) {
		out.counts.MessagesSent += rep.Metrics.MessagesSent
	}
	if err := d2.collect(&out.counts); err != nil {
		return err
	}
	sp = tr.begin("service.stop", root)
	err = d2.stop(ctx)
	tr.end(sp)
	return err
}

// request is client.Run one client call at a time, so each gets its
// span: Submit, WaitJob over SSE unless the reply is already terminal,
// then DecodeReport. It also returns the report's raw bytes and whether
// the daemon served them from its cache or store.
func request(ctx context.Context, cl *client.Client, spec awakemis.Spec, tr *tracer, parent int) ([]byte, *awakemis.Report, bool, error) {
	sp := tr.begin("client.submit", parent)
	job, err := cl.Submit(ctx, spec)
	tr.end(sp)
	if err != nil {
		return nil, nil, false, fmt.Errorf("submitting %s: %w", spec.Name, err)
	}
	if !job.Status.Terminal() {
		sp = tr.begin("client.wait", parent)
		job, err = cl.WaitJob(ctx, job.ID, nil)
		tr.end(sp)
		if err != nil {
			return nil, nil, false, fmt.Errorf("waiting for %s: %w", spec.Name, err)
		}
	}
	if job.Status != client.JobDone {
		return nil, nil, false, fmt.Errorf("job %s (%s) ended %s: %s", job.ID, spec.Name, job.Status, job.Error)
	}
	sp = tr.begin("client.decode", parent)
	rep, err := job.DecodeReport()
	tr.end(sp)
	return job.Report, rep, job.Cached, err
}

// daemon is one in-process awakemisd: a service.Server over a store,
// served on a loopback listener, with a client bound to it.
type daemon struct {
	st      *store.Store
	srv     *service.Server
	hs      *http.Server
	served  chan error
	conns   *http.Transport
	cl      *client.Client
	stopped bool
}

// startDaemon opens the store and starts serving, as awakemisd does.
func startDaemon(dir string, tr *tracer, parent int) (*daemon, error) {
	sp := tr.begin("store.open", parent)
	st, err := store.Open(dir, 0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("service.start", parent)
	defer tr.end(sp)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Config{Store: st, Metrics: true})
	d := &daemon{st: st, srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1), conns: &http.Transport{}}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.cl = client.New("http://"+ln.Addr().String(), &http.Client{Transport: d.conns})
	return d, nil
}

// collect adds the daemon's counters, and its queue-wait histogram
// from /metrics, to c.
func (d *daemon) collect(c *sessionCounts) error {
	st := d.srv.StatsSnapshot()
	c.EngineRuns += st.EngineRuns
	c.CacheHits += st.CacheHits
	c.CacheMisses += st.CacheMisses
	c.RoundsSimulated += st.RoundsSimulated
	c.SimSeconds += st.SimSeconds
	rec := httptest.NewRecorder()
	d.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	sum, n, err := queueWait(rec.Body.String())
	c.QueueWaitSum += sum
	c.QueueWaits += n
	return err
}

// stop drains the daemon, then closes its listener, in awakemisd's
// shutdown order. Stopping a stopped daemon does nothing.
func (d *daemon) stop(ctx context.Context) error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.st.Close()
	if herr := d.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-d.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	d.conns.CloseIdleConnections()
	return err
}

// queueWait reads the queue-wait histogram's sum (seconds) and count
// from a /metrics page.
func queueWait(page string) (float64, int64, error) {
	var sum float64
	var n int64
	var err error
	for _, line := range strings.Split(page, "\n") {
		name, value, _ := strings.Cut(line, " ")
		switch name {
		case "awakemisd_queue_wait_seconds_sum":
			sum, err = strconv.ParseFloat(value, 64)
		case "awakemisd_queue_wait_seconds_count":
			n, err = strconv.ParseInt(value, 10, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("reading %q from /metrics: %w", line, err)
		}
	}
	return sum, n, nil
}

func (s *serviceLoad) check(c *checker, tr *tracer) {
	for _, o := range s.outs {
		errs := o.problems
		if o.err != nil {
			errs = append(errs, o.err)
		} else {
			errs = collect(errs, c.same(s.name+"/artifact", o.artifact))
			for i := range o.trials {
				errs = collect(errs, s.checkReport(c, fmt.Sprintf("%s/trial/%02d", s.name, i), s.trials[i], o.trials[i], o.trialReps[i], tr))
			}
			for i := range o.cold {
				errs = collect(errs, s.checkReport(c, fmt.Sprintf("%s/cold/%d", s.name, i), s.cold[i], o.cold[i], o.coldReps[i], tr))
			}
			// Aggregating the daemon's trial reports locally must give
			// its artifact byte for byte. Traced runs do it for every
			// session, to time the study layer.
			if tr != nil || c.once(s.name+"/aggregate") {
				errs = collect(errs, s.aggregate(o, tr))
			}
		}
		c.op(s.name+" "+o.label, errs)
	}
	s.outs = nil
}

// checkReport checks one report a session received: verified, the
// expected digest, and for its first copy an independent MIS check.
func (s *serviceLoad) checkReport(c *checker, key string, spec awakemis.Spec, raw []byte, rep *awakemis.Report, tr *tracer) error {
	if !rep.Verified {
		return fmt.Errorf("%s: the report is not verified", key)
	}
	if err := c.same(key, raw); err != nil {
		return err
	}
	if c.once(key) {
		return verifyMIS(spec.Graph, rep.Output.InMIS, tr)
	}
	return nil
}

// aggregate folds the session's trial reports into a fresh study
// accumulator and requires the daemon's artifact byte for byte.
func (s *serviceLoad) aggregate(o *sessionOut, tr *tracer) error {
	sp := tr.begin("study.expand", -1)
	acc, err := s.study.Accumulator()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("study.aggregate", -1)
	for i, rep := range o.trialReps {
		if err = acc.Add(i, rep); err != nil {
			break
		}
	}
	var res *awakemis.StudyResult
	if err == nil {
		res, err = acc.Result()
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	data, err := res.JSON()
	if err != nil {
		return err
	}
	// The artifact reaches the client re-encoded inside the study's JSON
	// view, so compare the compact forms.
	var local, served bytes.Buffer
	if err := json.Compact(&local, data); err != nil {
		return err
	}
	if err := json.Compact(&served, o.artifact); err != nil {
		return err
	}
	if !bytes.Equal(local.Bytes(), served.Bytes()) {
		return errors.New("the study artifact differs from aggregating its trial reports locally")
	}
	return nil
}

func (s *serviceLoad) after(context.Context, int) {}

func (s *serviceLoad) latencies() latencies { return s.lat }

func (s *serviceLoad) sessions() []sessionCounts { return s.counts }

func (s *serviceLoad) layers(ctx context.Context, c *checker, tr *tracer, m map[string]float64) {
	var sum sessionCounts
	n := 0
	for _, k := range s.counts {
		if !k.Traced {
			continue
		}
		n++
		sum.LanesVectorized += k.LanesVectorized
		sum.EngineRuns += k.EngineRuns
		sum.CacheHits += k.CacheHits
		sum.CacheMisses += k.CacheMisses
		sum.RoundsSimulated += k.RoundsSimulated
		sum.SimSeconds += k.SimSeconds
		sum.QueueWaitSum += k.QueueWaitSum
		sum.QueueWaits += k.QueueWaits
		sum.MessagesSent += k.MessagesSent
	}
	per := float64(max(n, 1))
	m["service.engine_runs"] = float64(sum.EngineRuns) / per
	m["service.lanes_vectorized"] = float64(sum.LanesVectorized) / per
	m["service.cache_hit_ratio"] = ratio(float64(sum.CacheHits), float64(sum.CacheHits+sum.CacheMisses))
	m["service.queue_wait_ms"] = 1000 * ratio(sum.QueueWaitSum, float64(sum.QueueWaits))
	// The daemons run the engine; their counters give its rounds and
	// the time spent in them, and the Reports its messages.
	m["sim.rounds_ms"] = 1000 * sum.SimSeconds / per
	m["sim.executed_rounds"] = float64(sum.RoundsSimulated) / per
	m["sim.messages"] = float64(sum.MessagesSent) / per
	c.op(s.name+" layer probe", collect(nil, s.layerProbe(ctx, tr, m)))
	for _, name := range []string{"client.submit", "client.wait", "client.decode", "study.expand", "study.aggregate", "service.hash", "service.submit_hit", "store.get", "store.put", "report.encode"} {
		m[name+"_ms"] = tr.meanMS(name)
	}
}

// layerProbe times the calls a session makes only inside the daemon:
// report encoding, canonical hashing, Store.Put and Store.Get, and an
// in-process Server.Submit of a cached spec. It encodes the latest
// session's trial Reports again, puts the served bytes into a fresh
// store under their hashes, reopens it, reads them back, and submits
// every spec to a server over it; every encoding and read must give the
// served bytes. It sets report.bytes and store.record_bytes, the means
// per Report and per record file.
func (s *serviceLoad) layerProbe(ctx context.Context, tr *tracer, m map[string]float64) error {
	if len(s.last) != len(s.trials) {
		return errors.New("no session produced the trial reports")
	}
	encoded := 0
	for i, rep := range s.lastReps {
		sp := tr.begin("report.encode", -1)
		data, err := json.Marshal(rep)
		tr.end(sp)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, s.last[i]) {
			return fmt.Errorf("%s: encoding the decoded Report does not give the served bytes", s.trials[i].Name)
		}
		encoded += len(data)
	}
	m["report.bytes"] = float64(encoded) / float64(len(s.lastReps))
	if err := os.MkdirAll(s.stores, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(s.stores, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	hashes := make([]string, len(s.trials))
	for i, spec := range s.trials {
		sp := tr.begin("service.hash", -1)
		hashes[i], err = service.Hash(service.Canonicalize(spec))
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("store.put", -1)
		err = st.Put(hashes[i], s.last[i])
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	stats := st.Stats()
	m["store.record_bytes"] = ratio(float64(stats.Bytes), float64(stats.Entries))
	st.Close()

	if st, err = store.Open(dir, 0); err != nil {
		return err
	}
	defer st.Close()
	for i, h := range hashes {
		sp := tr.begin("store.get", -1)
		data, ok := st.Get(h)
		tr.end(sp)
		if !ok || !bytes.Equal(data, s.last[i]) {
			return fmt.Errorf("store record %.12s did not read back", h)
		}
	}
	srv := service.New(service.Config{Store: st})
	defer srv.Shutdown(ctx)
	for i, spec := range s.trials {
		// The first submission is a store hit that promotes the report
		// into memory; the timed second one is a memory hit.
		if _, err := srv.Submit(spec); err != nil {
			return err
		}
		sp := tr.begin("service.submit_hit", -1)
		job, err := srv.Submit(spec)
		tr.end(sp)
		if err != nil {
			return err
		}
		if !job.Cached || !bytes.Equal(job.Report, s.last[i]) {
			return fmt.Errorf("%s: an in-process resubmission was not served from the cache", spec.Name)
		}
	}
	return nil
}

// lanesLine summarizes the daemon's lane-grouping race over the timed
// sessions: how many ran fewer than all of the study's lanes merged.
func lanesLine(cs []sessionCounts) string {
	lo, hi, short := cs[0].LanesVectorized, cs[0].LanesVectorized, 0
	runsLo, runsHi := cs[0].EngineRuns, cs[0].EngineRuns
	for _, c := range cs {
		lo, hi = min(lo, c.LanesVectorized), max(hi, c.LanesVectorized)
		runsLo, runsHi = min(runsLo, c.EngineRuns), max(runsHi, c.EngineRuns)
		if c.LanesVectorized < c.StudyLanes {
			short++
		}
	}
	return fmt.Sprintf("%d timed sessions: lanes_vectorized %d..%d of %d, %d sessions short; engine_runs %d..%d",
		len(cs), lo, hi, cs[0].StudyLanes, short, runsLo, runsHi)
}
