package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"awakemis"
	"awakemis/client"
	"awakemis/internal/service"
	"awakemis/internal/store"
)

// TestServedJobBytes: the job handlers write a report-carrying Job as
// exactly json.Marshal of the same Job, on a memory hit, on a store hit
// after the store is reopened, and on GET /v1/jobs/{id}.
func TestServedJobBytes(t *testing.T) {
	ctx := context.Background()
	spec := awakemis.Spec{Name: "bytes <&>", Task: "awake-mis", Graph: awakemis.GraphSpec{Family: "gnp", N: 64, Seed: 3}}
	dir := t.TempDir()
	open := func() (*service.Server, *httptest.Server) {
		st, err := store.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv := service.New(service.Config{Store: st})
		return srv, httptest.NewServer(srv.Handler())
	}
	stop := func(srv *service.Server, ts *httptest.Server) {
		ts.Close()
		sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			t.Fatal(err)
		}
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	// check requests method path, posting spec, and compares the body
	// with json.Marshal of the Job that srv holds under the response's
	// id.
	check := func(label string, srv *service.Server, ts *httptest.Server, method, path string) service.Job {
		t.Helper()
		var reqBody io.Reader
		if method == http.MethodPost {
			reqBody = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, reqBody)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", label, resp.StatusCode, got)
		}
		var id struct{ ID string }
		if err := json.Unmarshal(got, &id); err != nil {
			t.Fatal(err)
		}
		job, ok := srv.Lookup(id.ID)
		if !ok {
			t.Fatalf("%s: no job %s", label, id.ID)
		}
		want, err := json.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s served\n%s\nwant json.Marshal of the job\n%s", label, got, want)
		}
		if job.Status != service.JobDone || len(job.Report) == 0 || !strings.Contains(string(got), `"report":{`) {
			t.Errorf("%s: job %s is %s without a report on the wire", label, job.ID, job.Status)
		}
		return job
	}

	srv, ts := open()
	cold, err := client.New(ts.URL, ts.Client()).Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.New(ts.URL, ts.Client()).WaitJob(ctx, cold.ID, nil); err != nil {
		t.Fatal(err)
	}
	check("GET /v1/jobs/{id}", srv, ts, http.MethodGet, "/v1/jobs/"+cold.ID)
	if hit := check("memory hit", srv, ts, http.MethodPost, "/v1/jobs"); !hit.Cached {
		t.Error("the repeated submission was not a cache hit")
	}
	stop(srv, ts)

	srv, ts = open()
	defer stop(srv, ts)
	check("store hit", srv, ts, http.MethodPost, "/v1/jobs")
	if st := srv.StatsSnapshot(); st.StoreHits != 1 || st.EngineRuns != 0 {
		t.Errorf("reopened store: store_hits %d, engine_runs %d; want 1 and 0", st.StoreHits, st.EngineRuns)
	}
}
