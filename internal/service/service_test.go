// End-to-end tests of the awakemisd core: real HTTP via httptest, the
// typed client package (so client/server wire compatibility is tested
// here too), and the -race-critical coalescing and cancellation
// paths. Queue states are made deterministic without timing: a
// Config{Workers: 1} server runs a blocker job that a RunGate holds at
// a round (export_test.go), so everything submitted behind the blocker
// provably coalesces or cancels before its flight starts.
package service_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"awakemis"
	"awakemis/client"
	"awakemis/internal/core"
	"awakemis/internal/service"
)

// heldSpec is the job the tests hold at a RunGate: naive-greedy on a
// cycle of n nodes executes hundreds of rounds, so a run held at round
// 1 and then canceled stops far short of its end.
func heldSpec(n int) awakemis.Spec {
	return awakemis.Spec{
		Name:    "blocker",
		Task:    "naive-greedy",
		Graph:   awakemis.GraphSpec{Family: "cycle", N: n},
		Options: awakemis.Options{Seed: 9},
	}
}

// targetSpec is the fast spec the dedup tests submit in duplicate.
func targetSpec() awakemis.Spec {
	return awakemis.Spec{
		Name:    "target",
		Task:    "awake-mis",
		Graph:   awakemis.GraphSpec{Family: "gnp", N: 64, P: 0.06},
		Options: awakemis.Options{Seed: 3},
	}
}

// newTestServer starts a one-worker server over real HTTP and returns
// a typed client for it. Cleanup shuts both down.
func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *client.Client) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	srv := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
	})
	c := client.New(ts.URL, ts.Client())
	c.PollInterval = 5 * time.Millisecond
	return srv, c
}

// TestConcurrentDuplicatesCoalesce is the acceptance flow: N
// identical concurrent POSTs trigger exactly one simulation, every
// submitter receives a bit-identical Report, and a resubmission after
// completion is served from cache without invoking an engine — all
// asserted via /v1/stats counters.
func TestConcurrentDuplicatesCoalesce(t *testing.T) {
	srv, c := newTestServer(t, service.Config{})
	ctx := context.Background()

	// Occupy the single worker so the duplicate flight stays queued
	// until all N submissions are in.
	gate := service.HoldRuns(t, srv, 1)
	blocker, err := c.Submit(ctx, heldSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	gate.Held()

	const n = 8
	jobs := make([]*client.Job, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := c.Submit(ctx, targetSpec())
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = job
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	gate.Release()

	reports := make([][]byte, n)
	for i, job := range jobs {
		final, err := c.Wait(ctx, job.ID)
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if final.Status != client.JobDone {
			t.Fatalf("job %d finished %s (%s)", i, final.Status, final.Error)
		}
		reports[i] = final.Report
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(reports[0], reports[i]) {
			t.Errorf("report %d is not bit-identical to report 0", i)
		}
	}
	// All duplicates share one content address, distinct job IDs.
	ids := map[string]bool{}
	for i, job := range jobs {
		if job.Hash != jobs[0].Hash {
			t.Errorf("job %d hash %s != %s", i, job.Hash, jobs[0].Hash)
		}
		ids[job.ID] = true
	}
	if len(ids) != n {
		t.Errorf("%d distinct job IDs for %d submissions", len(ids), n)
	}

	if _, err := c.Wait(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.EngineRuns != 2 { // blocker + exactly one target run
		t.Errorf("engine_runs = %d, want 2", st.EngineRuns)
	}
	if st.CacheMisses != 2 || st.Coalesced != n-1 {
		t.Errorf("misses/coalesced = %d/%d, want 2/%d", st.CacheMisses, st.Coalesced, n-1)
	}

	// Resubmission after completion: a cache hit, terminal immediately,
	// same bytes, no new engine run.
	again, err := c.Submit(ctx, targetSpec())
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != client.JobDone || !again.Cached {
		t.Errorf("resubmission status/cached = %s/%t, want done/true", again.Status, again.Cached)
	}
	if !bytes.Equal(again.Report, reports[0]) {
		t.Error("cached report is not bit-identical to the original")
	}
	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 || st.EngineRuns != 2 {
		t.Errorf("after resubmit: hits/engine_runs = %d/%d, want 1/2", st.CacheHits, st.EngineRuns)
	}
}

// TestCancelOneWaiterKeepsSharedRun: with two submitters attached to
// one flight, canceling one must not abort the simulation the other
// is waiting on.
func TestCancelOneWaiterKeepsSharedRun(t *testing.T) {
	srv, c := newTestServer(t, service.Config{})
	ctx := context.Background()

	gate := service.HoldRuns(t, srv, 1)
	blocker, err := c.Submit(ctx, heldSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	gate.Held()
	a, err := c.Submit(ctx, targetSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(ctx, targetSpec())
	if err != nil {
		t.Fatal(err)
	}

	canceled, err := c.Cancel(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.Status != client.JobCanceled {
		t.Fatalf("canceled job status = %s", canceled.Status)
	}
	gate.Release()

	final, err := c.Wait(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != client.JobDone || len(final.Report) == 0 {
		t.Fatalf("surviving waiter finished %s (%s), want done with a report", final.Status, final.Error)
	}
	// The canceled job stays canceled — it does not inherit the report.
	after, err := c.Job(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Status != client.JobCanceled || after.Report != nil {
		t.Errorf("canceled job after completion: %s with %d report bytes", after.Status, len(after.Report))
	}
	if _, err := c.Wait(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.EngineRuns != 2 || st.JobsCanceled != 1 || st.JobsCompleted != 2 {
		t.Errorf("engine_runs/canceled/completed = %d/%d/%d, want 2/1/2",
			st.EngineRuns, st.JobsCanceled, st.JobsCompleted)
	}
}

// TestCancelLastWaiterWhileQueued: when every submitter of a queued
// flight cancels, the flight is abandoned without ever invoking an
// engine.
func TestCancelLastWaiterWhileQueued(t *testing.T) {
	srv, c := newTestServer(t, service.Config{})
	ctx := context.Background()

	gate := service.HoldRuns(t, srv, 1)
	blocker, err := c.Submit(ctx, heldSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	gate.Held()
	d, err := c.Submit(ctx, targetSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, d.ID); err != nil {
		t.Fatal(err)
	}
	gate.Release()
	if _, err := c.Wait(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	// The cancel took the abandoned flight off the queue, so once the
	// blocker is done nothing is in flight and no worker ever ran it.
	if st := srv.StatsSnapshot(); st.InFlight != 0 || st.EngineRuns != 1 {
		t.Errorf("inflight/engine_runs = %d/%d, want 0/1 (the blocker only)", st.InFlight, st.EngineRuns)
	}
	// Canceling again conflicts.
	if _, err := c.Cancel(ctx, d.ID); err == nil {
		t.Error("second cancel should conflict")
	} else if apiErr := new(client.APIError); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Errorf("second cancel error = %v, want HTTP 409", err)
	}
}

// TestCancelRunningJobAbortsSimulation: canceling the only submitter
// of a running job stops the engine at the next round boundary. The
// job is canceled while held after its first round, so the engine
// executes exactly one round of hundreds.
func TestCancelRunningJobAbortsSimulation(t *testing.T) {
	srv, c := newTestServer(t, service.Config{})
	ctx := context.Background()

	gate := service.HoldRuns(t, srv, 1)
	job, err := c.Submit(ctx, heldSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	gate.Held()
	if _, err := c.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	gate.Release()
	// Shutdown returns once the worker is idle.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := srv.StatsSnapshot(); st.RoundsSimulated != 1 || st.JobsCanceled != 1 {
		t.Errorf("rounds_simulated/jobs_canceled = %d/%d, want 1/1: the run was not aborted at the next round",
			st.RoundsSimulated, st.JobsCanceled)
	}
}

// TestQueueFullRejects: a submission needing a new simulation when
// the queue is full gets 503; duplicates of queued work still attach.
func TestQueueFullRejects(t *testing.T) {
	srv, c := newTestServer(t, service.Config{QueueSize: 1})
	// This test observes the raw queue-full 503 (the client's backoff,
	// tested in client/retry_test.go, would mask it by retrying until
	// the blocker finishes).
	c.MaxRetries = -1
	ctx := context.Background()

	// The held blocker occupies the worker, freeing its queue slot.
	gate := service.HoldRuns(t, srv, 1)
	if _, err := c.Submit(ctx, heldSpec(300)); err != nil {
		t.Fatal(err)
	}
	gate.Held()
	queued, err := c.Submit(ctx, targetSpec()) // fills the slot
	if err != nil {
		t.Fatal(err)
	}
	other := targetSpec()
	other.Options.Seed = 999 // distinct content address: needs a new slot
	_, err = c.Submit(ctx, other)
	apiErr := new(client.APIError)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit error = %v, want HTTP 503", err)
	}
	if !apiErr.IsRetryable() {
		t.Error("queue-full error should be retryable")
	}
	// A duplicate of the queued spec coalesces instead of overflowing.
	dup, err := c.Submit(ctx, targetSpec())
	if err != nil {
		t.Fatalf("duplicate of queued spec rejected: %v", err)
	}
	// Canceling every waiter of the queued flight frees its slot
	// immediately — the rejected spec now fits without waiting for the
	// busy worker.
	if _, err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, dup.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, other); err != nil {
		t.Errorf("slot not freed by canceling the queued flight: %v", err)
	}
}

// TestSubmitValidation: malformed specs are 400s with ErrInvalidSpec
// discrimination, not 500s.
func TestSubmitValidation(t *testing.T) {
	srv, c := newTestServer(t, service.Config{})
	ctx := context.Background()

	bad := awakemis.Spec{Task: "no-such-task"}
	_, err := c.Submit(ctx, bad)
	apiErr := new(client.APIError)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown task: %v, want HTTP 400", err)
	}
	if !strings.Contains(apiErr.Message, "unknown task") {
		t.Errorf("error message %q not descriptive", apiErr.Message)
	}
	// Direct API surface agrees.
	if _, err := srv.Submit(bad); !errors.Is(err, awakemis.ErrInvalidSpec) {
		t.Errorf("Server.Submit = %v, want ErrInvalidSpec", err)
	}
	// The removed lockstep engine is a bad spec that names the one engine.
	lockstep := awakemis.Spec{Task: "luby", Options: awakemis.Options{Engine: "lockstep"}}
	_, err = c.Submit(ctx, lockstep)
	apiErr = new(client.APIError)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("lockstep engine: %v, want HTTP 400", err)
	}
	if !strings.Contains(apiErr.Message, "stepped is the only engine") {
		t.Errorf("error message %q does not name the stepped engine", apiErr.Message)
	}
	if _, err := srv.Submit(lockstep); !errors.Is(err, awakemis.ErrInvalidSpec) {
		t.Errorf("Server.Submit(lockstep) = %v, want ErrInvalidSpec", err)
	}
	// K_46400 overflows the CSR edge cap: a 400, never a generator
	// panic on a worker goroutine (which would take the daemon down).
	huge := awakemis.Spec{Task: "luby", Graph: awakemis.GraphSpec{Family: "complete", N: 46400}}
	_, err = c.Submit(ctx, huge)
	apiErr = new(client.APIError)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("complete n=46400: %v, want HTTP 400", err)
	}
	if !strings.Contains(apiErr.Message, "CSR cap") {
		t.Errorf("error message %q does not name the edge cap", apiErr.Message)
	}
	if _, err := c.Health(ctx); err != nil {
		t.Errorf("daemon unhealthy after the oversized spec: %v", err)
	}
	// Awake-MIS constants out of range are a 400 too, not a failed job.
	badParams := awakemis.Spec{Task: "awake-mis", Graph: awakemis.GraphSpec{N: 64},
		Options: awakemis.Options{Params: core.Params{NP: -5}}}
	_, err = c.Submit(ctx, badParams)
	apiErr = new(client.APIError)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("awake-mis np=-5: %v, want HTTP 400", err)
	}
	if !strings.Contains(apiErr.Message, "np must be non-negative") {
		t.Errorf("error message %q does not name np", apiErr.Message)
	}
	// So is a known network-size bound below the graph's node count.
	smallN := awakemis.Spec{Task: "luby", Graph: awakemis.GraphSpec{Family: "gnp", N: 4096},
		Options: awakemis.Options{Seed: 1, N: 8, Strict: true}}
	_, err = c.Submit(ctx, smallN)
	apiErr = new(client.APIError)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("options n=8 on 4096 nodes: %v, want HTTP 400", err)
	}
	if !strings.Contains(apiErr.Message, "below the graph's 4096 nodes") {
		t.Errorf("error message %q does not name the node count", apiErr.Message)
	}
	// Nothing was spent on the bad specs.
	if st := srv.StatsSnapshot(); st.JobsSubmitted != 0 || st.EngineRuns != 0 {
		t.Errorf("bad specs counted: %+v", st)
	}
}

// TestRunAndRegistryEndpoints covers the client's high-level Run plus
// /v1/tasks and /v1/healthz.
func TestRunAndRegistryEndpoints(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	ctx := context.Background()

	if _, err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	infos, err := c.Tasks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := awakemis.Tasks()
	if len(infos) != len(want) {
		t.Fatalf("%d tasks over the wire, registry has %d", len(infos), len(want))
	}
	for i, info := range infos {
		if info.Name != want[i].Name || info.Kind != want[i].Kind {
			t.Errorf("task %d = %s/%s, want %s/%s", i, info.Name, info.Kind, want[i].Name, want[i].Kind)
		}
	}

	rep, err := c.Run(ctx, targetSpec())
	if err != nil {
		t.Fatal(err)
	}
	local, err := awakemis.Run(context.Background(), service.Canonicalize(targetSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Task != local.Task || rep.Seed != local.Seed || rep.Metrics.MaxAwake != local.Metrics.MaxAwake || !rep.Verified {
		t.Errorf("remote report diverges from local run:\n%+v\nvs\n%+v", rep, local)
	}
}

// TestGracefulDrain: Shutdown finishes queued work, then the server
// refuses new submissions and reports draining health.
func TestGracefulDrain(t *testing.T) {
	srv := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	c.PollInterval = 5 * time.Millisecond
	ctx := context.Background()

	jobs := make([]service.Job, 3)
	for i := range jobs {
		spec := targetSpec()
		spec.Options.Seed = int64(i + 1) // three distinct queued runs
		job, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Every queued job was drained to completion, not abandoned.
	for i, job := range jobs {
		final, ok := srv.Lookup(job.ID)
		if !ok || final.Status != service.JobDone {
			t.Errorf("job %d after drain: %+v", i, final)
		}
	}
	// New work is refused on both surfaces, and health reports it.
	if _, err := srv.Submit(targetSpec()); !errors.Is(err, service.ErrUnavailable) {
		t.Errorf("post-drain Submit = %v, want ErrUnavailable", err)
	}
	_, err := c.Health(ctx)
	apiErr := new(client.APIError)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain health = %v, want HTTP 503", err)
	}
	st := srv.StatsSnapshot()
	if !st.Draining || st.JobsCompleted != 3 {
		t.Errorf("post-drain stats: %+v", st)
	}
}
