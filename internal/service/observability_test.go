// Observability-plane tests: live per-cell study progress over both
// polling and the SSE stream (counters monotone, cache-served cells
// reported as "cached"), subscriber lifecycle (a disconnected SSE
// client leaks no goroutine), the fleet-wide /v1/cluster/stats
// aggregate, and the embedded dashboard.
package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"awakemis"
	"awakemis/client"
	"awakemis/internal/service"
)

// cycleStudy is a grid of naive-greedy cells on cycles, each run
// hundreds of rounds long: 2 cells x 2 trials = 4 sub-runs.
func cycleStudy() awakemis.StudySpec {
	return awakemis.StudySpec{
		Name:     "slow",
		Tasks:    []string{"naive-greedy"},
		Families: []awakemis.GraphSpec{{Family: "cycle"}},
		Sizes:    []int{150, 250},
		Trials:   2,
		Seed:     9,
		Options:  awakemis.Options{Strict: true},
	}
}

// checkMonotone fails the test if the observed sequence ever
// decreases.
func checkMonotone(t *testing.T, label string, seq []int64) {
	t.Helper()
	for i := 1; i < len(seq); i++ {
		if seq[i] < seq[i-1] {
			t.Errorf("%s regressed at observation %d: %v", label, i, seq)
			return
		}
	}
}

// TestStudyProgressLiveMonotone follows one study two ways — the
// frames of client.WaitStudy (the SSE path), and a GET
// /v1/studies/{id} poll as each frame arrives — asserting on both
// feeds that the progress block is attached, every aggregate counter
// and per-cell trial count moves monotonically, and the terminal view
// is frozen complete. The study's first sub-run is held after its
// first round until a frame shows its cell running.
func TestStudyProgressLiveMonotone(t *testing.T) {
	srv, c := newTestServer(t, service.Config{Workers: 1, Metrics: true})
	ctx := context.Background()

	gate := service.HoldRuns(t, srv, 1)
	study, err := c.SubmitStudy(ctx, cycleStudy())
	if err != nil {
		t.Fatal(err)
	}
	id := study.ID
	gate.Held()

	var mu sync.Mutex
	var runsSeen, roundsSeen, runsPolled []int64
	cellDone := map[int]int{}
	sawRunning := false
	final, err := c.WaitStudy(ctx, id, func(s *client.Study) {
		mu.Lock()
		defer mu.Unlock()
		if st, err := c.Study(ctx, id); err != nil {
			t.Errorf("poll: %v", err)
		} else if st.Progress != nil {
			runsPolled = append(runsPolled, int64(st.Progress.RunsDone))
		}
		if s.Progress == nil {
			t.Error("frame without a progress block")
			return
		}
		p := s.Progress
		runsSeen = append(runsSeen, int64(p.RunsDone))
		roundsSeen = append(roundsSeen, p.ExecutedRounds)
		if p.CellsRunning > 0 {
			if p.ExecutedRounds <= 0 {
				t.Errorf("running cell, but executed_rounds = %d", p.ExecutedRounds)
			}
			sawRunning = true
			gate.Release()
		}
		if got := p.CellsQueued + p.CellsRunning + p.CellsDone + p.CellsCached +
			p.CellsFailed + p.CellsCanceled; got != len(p.Cells) {
			t.Errorf("cell state counts sum to %d, want %d", got, len(p.Cells))
		}
		for _, cell := range p.Cells {
			if cell.Done < cellDone[cell.Index] {
				t.Errorf("cell %d trials regressed %d -> %d", cell.Index, cellDone[cell.Index], cell.Done)
			}
			cellDone[cell.Index] = cell.Done
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != client.JobDone {
		t.Fatalf("study ended %s: %s", final.Status, final.Error)
	}
	checkMonotone(t, "SSE runs_done", runsSeen)
	checkMonotone(t, "SSE executed_rounds", roundsSeen)
	checkMonotone(t, "polled runs_done", runsPolled)
	if !sawRunning {
		t.Error("never observed a running cell")
	}

	// Terminal view: frozen, complete, and still served after the
	// sub-job references were released.
	p := final.Progress
	if p == nil {
		t.Fatal("terminal study carries no progress")
	}
	if p.CellsDone != 2 || p.RunsDone != 4 {
		t.Errorf("terminal cells_done/runs_done = %d/%d, want 2/4", p.CellsDone, p.RunsDone)
	}
	if p.CellsQueued != 0 || p.CellsRunning != 0 || p.ETAMS != 0 {
		t.Errorf("terminal view not frozen: %+v", p)
	}
	if p.ExecutedRounds <= 0 || p.EngineSeconds <= 0 {
		t.Errorf("terminal executed_rounds/engine_seconds = %d/%v, want > 0", p.ExecutedRounds, p.EngineSeconds)
	}
	if st := srv.StatsSnapshot(); st.StudyCells["done"] != 2 {
		t.Errorf("stats study_cells = %v, want done:2", st.StudyCells)
	}

	// The new Prometheus series tick with the study's terminal tally.
	resp, err := http.Get(c.BaseURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `awakemisd_study_cells_total{state="done"} 2`) {
		t.Error("metrics output lacks the study_cells done series")
	}
}

// TestCachedStudyStreamsCachedCells is the re-submission acceptance
// criterion: after a study completes once, submitting it again costs
// zero engine runs, and its SSE stream's terminal frame reports every
// cell "cached" (not "done" with untracked provenance) with the
// artifact attached.
func TestCachedStudyStreamsCachedCells(t *testing.T) {
	_, c := newTestServer(t, service.Config{Workers: 2})
	ctx := context.Background()

	spec := awakemis.StudySpec{
		Name:    "warm",
		Tasks:   []string{"luby"},
		Sizes:   []int{32, 64},
		Trials:  2,
		Seed:    5,
		Options: awakemis.Options{Strict: true},
	}
	first, err := c.SubmitStudy(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	firstDone, err := c.WaitStudy(ctx, first.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if firstDone.Status != client.JobDone {
		t.Fatalf("first study ended %s: %s", firstDone.Status, firstDone.Error)
	}
	if p := firstDone.Progress; p == nil || p.CellsDone != 2 || p.CellsCached != 0 {
		t.Errorf("cold study progress = %+v, want 2 done, 0 cached", p)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	engineRuns := st.EngineRuns

	// Re-submission: consume the raw SSE stream to its terminal frame.
	again, err := c.SubmitStudy(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.BaseURL() + "/v1/studies/" + again.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var terminal *client.Study
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var s client.Study
		if err := json.Unmarshal([]byte(data), &s); err != nil {
			t.Fatalf("frame is not a Study: %v\n%s", err, data)
		}
		if s.Status.Terminal() {
			terminal = &s
			break
		}
	}
	if terminal == nil {
		t.Fatal("stream ended without a terminal frame")
	}
	if terminal.Status != client.JobDone || len(terminal.Result) == 0 {
		t.Fatalf("terminal frame = %s with %d result bytes", terminal.Status, len(terminal.Result))
	}
	p := terminal.Progress
	if p == nil {
		t.Fatal("terminal frame carries no progress")
	}
	if p.CellsCached != len(p.Cells) || len(p.Cells) != 2 {
		t.Errorf("cells_cached = %d of %d cells, want all 2", p.CellsCached, len(p.Cells))
	}
	for _, cell := range p.Cells {
		if cell.State != "cached" {
			t.Errorf("cell %d state %q, want cached", cell.Index, cell.State)
		}
		if cell.Cached != cell.Trials {
			t.Errorf("cell %d cached %d of %d trials", cell.Index, cell.Cached, cell.Trials)
		}
	}
	if p.RunsCached != terminal.Total {
		t.Errorf("runs_cached = %d, want %d", p.RunsCached, terminal.Total)
	}
	if p.ExecutedRounds != 0 {
		t.Errorf("cached study executed %d rounds", p.ExecutedRounds)
	}

	// Zero new engine runs: the stream proves it, the counter confirms.
	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.EngineRuns != engineRuns {
		t.Errorf("re-submission ran %d new simulations", st.EngineRuns-engineRuns)
	}
	if st.StudyCells["cached"] != 2 || st.StudyCells["done"] != 2 {
		t.Errorf("study_cells = %v, want cached:2 done:2", st.StudyCells)
	}

	// The studies index lists both, newest first, progress attached but
	// results stripped.
	list, err := c.Studies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != again.ID || list[1].ID != first.ID {
		t.Fatalf("studies list = %+v", list)
	}
	for _, s := range list {
		if len(s.Result) != 0 {
			t.Errorf("listed study %s carries %d result bytes", s.ID, len(s.Result))
		}
		if s.Progress == nil {
			t.Errorf("listed study %s carries no progress", s.ID)
		}
	}
}

// TestStudyEventsUnknownStudy: the study events endpoint 404s like the
// study GET.
func TestStudyEventsUnknownStudy(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	resp, err := http.Get(c.BaseURL() + "/v1/studies/s-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

// TestSSEDisconnectLeaksNoGoroutines pins the subscriber lifecycle: a
// client that disconnects mid-stream (context cancel) unregisters
// cleanly — its handler returns, and with it die the handler goroutine
// (which IS the subscription) and everything it held — and the watched
// run itself is unaffected. Mirrors the engine's
// TestAbortedRunsLeakNoGoroutines.
func TestSSEDisconnectLeaksNoGoroutines(t *testing.T) {
	srv := service.New(service.Config{Workers: 1})
	// returned receives one value as each event stream's handler
	// returns, with a slot for each of the 8 streams the test opens, so
	// no handler blocks on it.
	returned := make(chan string, 8)
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/events") {
			returned <- r.URL.Path
		}
	}))
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		ts.Close()
	})
	c := client.New(ts.URL, ts.Client())
	c.PollInterval = 5 * time.Millisecond
	ctx := context.Background()

	// The held blocker occupies the single worker, so both the job and
	// the study stay live for as long as the streams care to watch.
	gate := service.HoldRuns(t, srv, 1)
	blocker, err := c.Submit(ctx, heldSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	gate.Held()
	study, err := c.SubmitStudy(ctx, awakemis.StudySpec{
		Name: "watched", Tasks: []string{"luby"}, Sizes: []int{32}, Trials: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	openAndDrop := func(path string) {
		t.Helper()
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		req, err := http.NewRequestWithContext(sctx, http.MethodGet, c.BaseURL()+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		// Read the initial frame so the handler is provably mid-stream,
		// then hang up.
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data: ") {
				return
			}
		}
		t.Fatalf("no frame from %s", path)
	}

	for range 4 {
		openAndDrop("/v1/jobs/" + blocker.ID + "/events")
		openAndDrop("/v1/studies/" + study.ID + "/events")
	}

	// Each handler unwinds once the server sees its client hang up.
	// streamEvents starts no goroutine of its own, so a returned
	// handler has released everything its stream held.
	for range 8 {
		<-returned
	}

	// The watched records never noticed: the study still cancels, and
	// the blocker, once released, completes.
	if _, err := c.CancelStudy(ctx, study.ID); err != nil {
		t.Fatal(err)
	}
	gate.Release()
	final, err := c.Wait(ctx, blocker.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != client.JobDone {
		t.Errorf("blocker ended %s after stream churn", final.Status)
	}
}

// TestClusterStatsAggregation: the front serves /v1/cluster/stats —
// every peer's counters fetched live plus a merged fleet total that
// equals self + sum(peers) — while worker daemons (no -peers) 404 the
// endpoint.
func TestClusterStatsAggregation(t *testing.T) {
	ctx := context.Background()
	w1 := startDaemon(t, service.Config{}, nil)
	defer w1.stop(t)
	w2 := startDaemon(t, service.Config{}, nil)
	defer w2.stop(t)
	front := startDaemon(t, service.Config{Metrics: true}, []string{w1.ts.URL, w2.ts.URL})
	defer front.stop(t)

	runStudyJSON(t, front.c, clusterStudy())

	cs, err := front.c.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.PeersTotal != 2 || cs.PeersUp != 2 || len(cs.Peers) != 2 {
		t.Fatalf("peers up/total = %d/%d (%d rows)", cs.PeersUp, cs.PeersTotal, len(cs.Peers))
	}
	var peerRuns, peerRounds int64
	for _, p := range cs.Peers {
		if !p.Up || p.Stats == nil || p.Error != "" {
			t.Fatalf("peer row %+v, want up with stats", p)
		}
		peerRuns += p.Stats.EngineRuns
		peerRounds += p.Stats.RoundsSimulated
	}
	if peerRuns <= 0 {
		t.Error("no engine runs on any worker after a forwarded study")
	}
	if got, want := cs.Total.EngineRuns, cs.Self.EngineRuns+peerRuns; got != want {
		t.Errorf("total engine_runs = %d, want self %d + peers %d", got, cs.Self.EngineRuns, peerRuns)
	}
	if got, want := cs.Total.RoundsSimulated, cs.Self.RoundsSimulated+peerRounds; got != want {
		t.Errorf("total rounds_simulated = %d, want %d", got, want)
	}
	if cs.Total.JobsCompleted != cs.Self.JobsCompleted+cs.Peers[0].Stats.JobsCompleted+cs.Peers[1].Stats.JobsCompleted {
		t.Error("total jobs_completed is not the fleet sum")
	}
	// The front ran the study, so the fleet total carries its cell tally.
	if cs.Total.StudyCells["done"] != int64(len(clusterStudy().Cells())) {
		t.Errorf("total study_cells = %v", cs.Total.StudyCells)
	}

	// Workers are not fronts: 404, same shape as any unknown resource.
	var apiErr *client.APIError
	if _, err := w1.c.ClusterStats(ctx); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("worker cluster stats error = %v, want 404", err)
	}

	// The front's metrics carry the cluster gauge.
	resp, err := http.Get(front.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "awakemisd_cluster_peers_up 2") {
		t.Error("front metrics lack awakemisd_cluster_peers_up 2")
	}
}

// TestDashboardServed: the embedded dashboard is one self-contained
// HTML page wired to the public API endpoints.
func TestDashboardServed(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	resp, err := http.Get(c.BaseURL() + "/v1/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, want := range []string{"awakemisd", "/v1/stats", "/v1/studies", "/v1/cluster/stats", "EventSource"} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard page lacks %q", want)
		}
	}
	if strings.Contains(page, "<script src=") || strings.Contains(page, "<link") {
		t.Error("dashboard references external assets")
	}
}
