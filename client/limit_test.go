package client_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"awakemis/client"
)

// paddedJob serves GET /v1/jobs/j-1 as a small Job followed by spaces,
// size bytes in all, written in chunks so the server never holds the
// whole body.
func paddedJob(size int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		head := []byte(`{"id":"j-1","status":"done"}`)
		w.Header().Set("Content-Type", "application/json")
		w.Write(head)
		pad := bytes.Repeat([]byte{' '}, 1<<20)
		for left := size - len(head); left > 0; left -= len(pad) {
			if _, err := w.Write(pad[:min(left, len(pad))]); err != nil {
				return
			}
		}
	})
}

// TestResponseLimit: a body of exactly MaxResponse bytes decodes, and
// one byte more is an error naming the limit and the route instead of
// a JSON error about the cut-off bytes.
func TestResponseLimit(t *testing.T) {
	ctx := context.Background()
	t.Run("at-limit", func(t *testing.T) {
		ts := httptest.NewServer(paddedJob(client.MaxResponse))
		defer ts.Close()
		job, err := client.New(ts.URL, nil).Job(ctx, "j-1")
		if err != nil {
			t.Fatal(err)
		}
		if job.ID != "j-1" || job.Status != client.JobDone {
			t.Errorf("decoded %+v, want job j-1 done", job)
		}
	})
	t.Run("past-limit", func(t *testing.T) {
		ts := httptest.NewServer(paddedJob(client.MaxResponse + 1))
		defer ts.Close()
		_, err := client.New(ts.URL, nil).Job(ctx, "j-1")
		if err == nil {
			t.Fatal("a response past the limit decoded")
		}
		for _, want := range []string{"GET /v1/jobs/j-1", "64 MiB"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
		if strings.Contains(err.Error(), io.ErrUnexpectedEOF.Error()) || strings.Contains(err.Error(), "end of JSON") {
			t.Errorf("error %q reports the cut-off JSON, not the limit", err)
		}
	})
}
