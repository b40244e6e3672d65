// Telemetry tests: live job progress on GET /v1/jobs/{id} and the SSE
// event stream, trace-id propagation from request header to job record
// and structured logs, build info on /v1/healthz and /v1/stats, and
// the engine-level Prometheus series.
package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"awakemis/client"
	"awakemis/internal/service"
)

// TestJobProgressAndEvents follows a run two ways — GET
// /v1/jobs/{id} while the run is held after its first round, and the
// SSE stream via client.WaitJob — asserting the progress block
// appears after the first round, its round counter never decreases,
// and the stream ends with the terminal state. The run stays held
// until a frame carries progress.
func TestJobProgressAndEvents(t *testing.T) {
	srv, c := newTestServer(t, service.Config{})
	ctx := context.Background()

	gate := service.HoldRuns(t, srv, 1)
	job, err := c.Submit(ctx, heldSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	gate.Held()
	held, err := c.Job(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p := held.Progress; held.Status != client.JobRunning || p == nil || p.Executed != 1 || p.Rounds != 1 {
		t.Fatalf("job held after its first round: status %s, progress %+v; want running with 1 round", held.Status, p)
	}

	var mu sync.Mutex
	var rounds []int64
	sawProgress := false
	final, err := c.WaitJob(ctx, job.ID, func(j *client.Job) {
		mu.Lock()
		defer mu.Unlock()
		if j.Progress != nil {
			sawProgress = true
			gate.Release()
			rounds = append(rounds, j.Progress.Rounds)
			if j.Progress.Executed <= 0 || j.Progress.Awake < 0 {
				t.Errorf("implausible progress: %+v", *j.Progress)
			}
			if j.Progress.AwakeFrac < 0 || j.Progress.AwakeFrac > 1 {
				t.Errorf("awake fraction %v out of [0,1]", j.Progress.AwakeFrac)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != client.JobDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	if !sawProgress {
		t.Error("no progress frame observed")
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i] < rounds[i-1] {
			t.Errorf("progress rounds regressed: %v", rounds)
		}
	}
	// Terminal job: the progress block is dropped, the report stands.
	if final.Progress != nil {
		t.Errorf("terminal job still carries progress: %+v", final.Progress)
	}
	if len(final.Report) == 0 {
		t.Error("terminal SSE frame carried no report")
	}
}

// TestTraceIDPropagation pins the trace trail: a client-supplied trace
// id is echoed on the response header, recorded on the job, and
// appears in the server's structured job records; an absent header
// gets a minted id.
func TestTraceIDPropagation(t *testing.T) {
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	syncw := writerFunc(func(p []byte) (int, error) {
		logMu.Lock()
		defer logMu.Unlock()
		return logBuf.Write(p)
	})
	srv := service.New(service.Config{
		Workers: 1,
		Logger:  slog.New(slog.NewJSONHandler(syncw, nil)),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		ts.Close()
	})
	c := client.New(ts.URL, ts.Client())
	c.PollInterval = 5 * time.Millisecond

	const trace = "trace-test-0123456789abcdef"
	ctx := client.WithTraceID(context.Background(), trace)
	job, err := c.Submit(ctx, targetSpec())
	if err != nil {
		t.Fatal(err)
	}
	if job.TraceID != trace {
		t.Errorf("job trace id %q, want %q", job.TraceID, trace)
	}
	if !job.Status.Terminal() {
		if job, err = c.WaitJob(ctx, job.ID, nil); err != nil {
			t.Fatal(err)
		}
	}
	if job.Status != client.JobDone {
		t.Fatalf("job ended %s: %s", job.Status, job.Error)
	}

	logMu.Lock()
	logs := logBuf.String()
	logMu.Unlock()
	wantRecords := []string{"http request", "job start", "job end"}
	for _, rec := range wantRecords {
		found := false
		for _, line := range strings.Split(logs, "\n") {
			if strings.Contains(line, rec) && strings.Contains(line, trace) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %q record carrying trace id %q in logs:\n%s", rec, trace, logs)
		}
	}

	// The response header echoes the id; absent ids are minted.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/tasks", nil)
	req.Header.Set(client.TraceIDHeader, trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(client.TraceIDHeader); got != trace {
		t.Errorf("response trace header %q, want %q", got, trace)
	}
	resp2, err := http.Get(ts.URL + "/v1/tasks")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get(client.TraceIDHeader); got == "" {
		t.Error("no minted trace id on an untraced request")
	}
}

// TestHealthAndStatsBuildInfo: /v1/healthz and /v1/stats carry the
// same build identity (in tests at least the Go toolchain version is
// always known).
func TestHealthAndStatsBuildInfo(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("health status %q", h.Status)
	}
	if h.GoVersion == "" {
		t.Error("health carries no Go version")
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.GoVersion != h.GoVersion || st.Version != h.Version {
		t.Errorf("stats build info %q/%q diverges from health %q/%q",
			st.Version, st.GoVersion, h.Version, h.GoVersion)
	}
}

// TestEngineTelemetryCounters: a completed local run moves
// rounds_simulated by exactly its Report's executed rounds, and
// sim_seconds, and /metrics exposes the engine series and the
// queue-wait histogram.
func TestEngineTelemetryCounters(t *testing.T) {
	_, c := newTestServer(t, service.Config{Metrics: true})
	ctx := context.Background()

	rep, err := c.Run(ctx, targetSpec())
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.RoundsSimulated != rep.Metrics.ExecutedRounds || st.RoundsSimulated <= 0 {
		t.Errorf("rounds_simulated = %d after a run of %d executed rounds", st.RoundsSimulated, rep.Metrics.ExecutedRounds)
	}
	if st.SimSeconds <= 0 {
		t.Errorf("sim_seconds = %v after a completed run", st.SimSeconds)
	}

	resp, err := http.Get(c.BaseURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, series := range []string{
		"awakemisd_engine_rounds_simulated_total",
		"awakemisd_sim_seconds_total",
		"awakemisd_queue_wait_seconds_bucket",
		"awakemisd_queue_wait_seconds_count",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics output lacks %s", series)
		}
	}
}

// TestEventsStreamRaw consumes the SSE endpoint with a plain HTTP
// client, pinning the wire format (content type, data: framing) that
// non-Go consumers (curl -N, EventSource) rely on.
func TestEventsStreamRaw(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	ctx := context.Background()

	job, err := c.Submit(ctx, targetSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.BaseURL() + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	frames := 0
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		frames++
		var j client.Job
		if err := json.Unmarshal([]byte(data), &j); err != nil {
			t.Fatalf("frame %d is not a Job: %v\n%s", frames, err, data)
		}
		if j.ID != job.ID {
			t.Errorf("frame carries job %s, want %s", j.ID, job.ID)
		}
		if j.Status.Terminal() {
			return // stream closes after the terminal frame
		}
	}
	t.Fatalf("stream ended after %d frames without a terminal state", frames)
}

// TestEventsUnknownJob: the events endpoint 404s like the job GET.
func TestEventsUnknownJob(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	resp, err := http.Get(c.BaseURL() + "/v1/jobs/j-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

// TestClusterTraceAndProgress: one trace id crosses the whole cluster
// — stamped by the client, recorded on the front's job, and present in
// the worker daemon's structured job records — and the worker's live
// progress is relayed into the front's job view. The front's engine
// counters stay untouched: telemetry for forwarded rounds is the
// worker's to report.
func TestClusterTraceAndProgress(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	var workerLog, frontLog bytes.Buffer
	sink := func(buf *bytes.Buffer) *slog.Logger {
		return slog.New(slog.NewJSONHandler(writerFunc(func(p []byte) (int, error) {
			mu.Lock()
			defer mu.Unlock()
			return buf.Write(p)
		}), nil))
	}
	w := startDaemon(t, service.Config{Logger: sink(&workerLog)}, nil)
	defer w.stop(t)
	front := startDaemon(t, service.Config{Logger: sink(&frontLog)}, []string{w.ts.URL})
	defer front.stop(t)
	// The worker daemon holds the run after its first round until the
	// front relays its progress.
	gate := service.HoldRuns(t, w.srv, 1)
	defer gate.Release()

	const trace = "cluster-trace-e2e-1"
	tctx := client.WithTraceID(ctx, trace)
	job, err := front.c.Submit(tctx, heldSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	gate.Held()
	if job.TraceID != trace {
		t.Errorf("front job trace id %q, want %q", job.TraceID, trace)
	}

	sawRelayedProgress := false
	final, err := front.c.WaitJob(tctx, job.ID, func(j *client.Job) {
		if j.Progress != nil && j.Progress.Rounds > 0 {
			sawRelayedProgress = true
			gate.Release()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != client.JobDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	if !sawRelayedProgress {
		t.Error("front never relayed worker progress")
	}

	mu.Lock()
	wl, fl := workerLog.String(), frontLog.String()
	mu.Unlock()
	if !strings.Contains(fl, trace) {
		t.Errorf("front logs never mention trace id %q:\n%s", trace, fl)
	}
	if !(strings.Contains(wl, "job start") && strings.Contains(wl, trace)) {
		t.Errorf("worker logs carry no job record with trace id %q:\n%s", trace, wl)
	}

	fs, err := front.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fs.RoundsSimulated != 0 {
		t.Errorf("front rounds_simulated = %d, want 0 (forwarded rounds are the worker's)", fs.RoundsSimulated)
	}
	ws, err := w.c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ws.RoundsSimulated <= 0 {
		t.Errorf("worker rounds_simulated = %d after a completed run", ws.RoundsSimulated)
	}
}

// writerFunc adapts a function to io.Writer (lock-guarded log sinks).
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
