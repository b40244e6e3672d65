// End-to-end tests of daemon-served studies: byte-identity between
// direct and daemon execution (the study determinism contract), cache
// coalescing on re-submission (engine_runs unchanged), validation
// mapping, and cancellation.
package service_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"awakemis"
	"awakemis/client"
	"awakemis/internal/service"
)

// e2eStudy is the acceptance grid: the headline task and VT-MIS over
// an n-sweep, three trials per cell.
func e2eStudy() awakemis.StudySpec {
	return awakemis.StudySpec{
		Name:    "e2e",
		Tasks:   []string{"awake-mis", "vt-mis"},
		Sizes:   []int{64, 256, 1024},
		Trials:  3,
		Seed:    5,
		Options: awakemis.Options{Strict: true},
	}
}

// TestStudyDirectVsDaemon is the cross-path determinism contract:
// the same StudySpec produces a byte-identical StudyResult artifact
// whether executed directly through the public StudyRunner or
// submitted to the daemon — and a re-submitted study is served
// entirely from the report cache (engine_runs unchanged).
func TestStudyDirectVsDaemon(t *testing.T) {
	_, c := newTestServer(t, service.Config{Workers: 2})
	ctx := context.Background()

	spec := e2eStudy()
	local, err := awakemis.RunStudyContext(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, err := local.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance criterion's fit shape, asserted on the shared
	// artifact: awake-mis's awake metric prefers log log n.
	fit, ok := local.Fit("awake-mis", "gnp", "max_awake")
	if !ok || fit.Model != "loglog n" {
		t.Errorf("awake-mis max_awake fit = %+v (ok=%v), want loglog n", fit, ok)
	}

	study, err := c.SubmitStudy(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if study.Total != len(spec.Specs()) {
		t.Errorf("study total = %d, want %d", study.Total, len(spec.Specs()))
	}
	study, err = c.WaitStudy(ctx, study.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if study.Status != client.JobDone {
		t.Fatalf("study finished %s: %s", study.Status, study.Error)
	}
	if study.Done != study.Total {
		t.Errorf("done = %d, want %d", study.Done, study.Total)
	}
	// Byte identity across direct and daemon execution. The HTTP layer
	// compacts embedded raw JSON in transit, so the contract is on the
	// canonical rendering: decode the daemon's artifact and re-render
	// with the same JSON() both paths use (an exact float round trip —
	// TestStudyArtifactRoundTrip in the root package pins that).
	remote, err := study.DecodeResult()
	if err != nil {
		t.Fatal(err)
	}
	remoteJSON, err := remote.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remoteJSON, localJSON) {
		t.Errorf("daemon artifact differs from direct execution:\ndaemon: %.300s\nlocal:  %.300s", remoteJSON, localJSON)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	runs := stats.EngineRuns
	if want := int64(len(spec.Specs())); runs != want {
		t.Errorf("engine_runs = %d, want %d (one per expanded spec)", runs, want)
	}
	if stats.StudiesSubmitted != 1 || stats.StudiesCompleted != 1 {
		t.Errorf("study counters = %+v", stats)
	}

	// Re-submission: every sub-run is a cache hit, zero new engine
	// runs, byte-identical artifact.
	again, err := c.RunStudy(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	againJSON, err := again.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(againJSON, localJSON) {
		t.Error("re-submitted study artifact differs from direct execution")
	}
	stats, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EngineRuns != runs {
		t.Errorf("re-submission ran %d new simulations", stats.EngineRuns-runs)
	}
	if stats.CacheHits < int64(len(spec.Specs())) {
		t.Errorf("cache_hits = %d after re-submission", stats.CacheHits)
	}
	if stats.StudiesCompleted != 2 {
		t.Errorf("studies_completed = %d, want 2", stats.StudiesCompleted)
	}
}

// TestStudyDaemonVectorizedVsLocalScalar pins the identity contract
// across both the execution boundary and the scheduling axis: a
// daemon-served study, whose eight trials per cell run many at a time
// on the daemon's workers, produces the same artifact as a local run
// held to one trial at a time on one engine worker. (The name dates
// from when daemon cells ran as one merged vectorized pass; every
// trial is now an ordinary stepped run.)
func TestStudyDaemonVectorizedVsLocalScalar(t *testing.T) {
	_, c := newTestServer(t, service.Config{Workers: 2})
	ctx := context.Background()

	spec := awakemis.StudySpec{
		Name:    "vec8",
		Tasks:   []string{"luby", "vt-mis"},
		Sizes:   []int{32, 64},
		Trials:  8,
		Seed:    11,
		Options: awakemis.Options{Strict: true},
	}
	serial := awakemis.StudyRunner{Parallel: 1}
	prev := runtime.GOMAXPROCS(1) // the engine sizes its pool from GOMAXPROCS
	local, err := serial.Run(ctx, spec)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, err := local.JSON()
	if err != nil {
		t.Fatal(err)
	}
	remote, err := c.RunStudy(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	remoteJSON, err := remote.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remoteJSON, localJSON) {
		t.Errorf("daemon artifact differs from local serial run:\ndaemon: %.300s\nlocal:  %.300s", remoteJSON, localJSON)
	}
	// One engine run per trial spec.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(spec.Specs())); stats.EngineRuns != want {
		t.Errorf("engine_runs = %d, want %d", stats.EngineRuns, want)
	}
}

func TestStudyValidationAndLookupErrors(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	ctx := context.Background()

	_, err := c.SubmitStudy(ctx, awakemis.StudySpec{Tasks: []string{"quicksort"}})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid study error = %v, want 400", err)
	}
	if !strings.Contains(err.Error(), "unknown task") {
		t.Errorf("error %q does not name the bad task", err)
	}

	if _, err := c.Study(ctx, "s-999999"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("missing study error = %v, want 404", err)
	}
	if _, err := c.CancelStudy(ctx, "s-999999"); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("cancel missing study error = %v, want 404", err)
	}
}

// TestStudyCancel: canceling a study cancels its queued sub-runs and
// produces no artifact; canceling again conflicts.
func TestStudyCancel(t *testing.T) {
	srv, c := newTestServer(t, service.Config{Workers: 1})
	ctx := context.Background()

	// Occupy the single worker so the study's sub-runs stay queued.
	gate := service.HoldRuns(t, srv, 1)
	blocker, err := c.Submit(ctx, heldSpec(300))
	if err != nil {
		t.Fatal(err)
	}
	gate.Held()

	study, err := c.SubmitStudy(ctx, awakemis.StudySpec{
		Name:   "doomed",
		Tasks:  []string{"luby"},
		Sizes:  []int{32, 64},
		Trials: 2,
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel at once: the executor may be anywhere in its submission
	// phase, and cancellation must work at every point of it.
	canceled, err := c.CancelStudy(ctx, study.ID)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.Status != client.JobCanceled {
		t.Fatalf("canceled study status = %s", canceled.Status)
	}
	if len(canceled.Result) != 0 {
		t.Error("canceled study has a result")
	}
	var apiErr *client.APIError
	if _, err := c.CancelStudy(ctx, study.ID); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict {
		t.Errorf("double cancel error = %v, want 409", err)
	}

	// Every sub-run the executor submitted (j-000002 onwards) was
	// canceled with the study.
	for i := 2; i <= 5; i++ {
		id := fmt.Sprintf("j-%06d", i)
		j, err := c.Job(ctx, id)
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound {
			continue // not submitted before the cancel
		}
		if err != nil {
			t.Fatal(err)
		}
		if j.Status != client.JobCanceled {
			t.Errorf("sub-run %s is %s after the study's cancel", id, j.Status)
		}
	}

	// The blocker is unaffected by the study's cancellation.
	gate.Release()
	final, err := c.Wait(ctx, blocker.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != client.JobDone {
		t.Errorf("blocker finished %s", final.Status)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StudiesCanceled != 1 || stats.EngineRuns != 1 {
		t.Errorf("studies_canceled/engine_runs = %d/%d, want 1/1 (no sub-run ran)",
			stats.StudiesCanceled, stats.EngineRuns)
	}
}
