// Package client is the typed Go client for the awakemisd service
// API: submit Specs, poll jobs, wait for Reports, cancel, and read
// the registry, stats, and health endpoints. Its wire types are
// aliases of internal/service's own structs, so the client decodes
// exactly what the daemon encodes; the daemon's end-to-end tests run
// through this package.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"awakemis"
	"awakemis/internal/service"
	"awakemis/internal/traceid"
)

// TraceIDHeader is the HTTP header carrying the request trace id. The
// client stamps it on every request whose context carries an id (see
// WithTraceID); Submit/SubmitStudy/Run mint one when absent, so every
// submission is greppable across the daemons it touches.
const TraceIDHeader = traceid.Header

// WithTraceID returns ctx carrying the given trace id; subsequent
// client calls under this ctx stamp it on their requests.
func WithTraceID(ctx context.Context, id string) context.Context {
	return traceid.With(ctx, id)
}

// TraceID returns the trace id carried by ctx, or "".
func TraceID(ctx context.Context) string { return traceid.From(ctx) }

// The wire types are the daemon's own: each is declared once, in
// internal/service, which encodes it.
type (
	// JobStatus is a job's or a study's lifecycle state.
	JobStatus = service.JobStatus
	// Job is one submission as the server reports it.
	Job = service.Job
	// JobProgress is the live view of a running job's simulation.
	JobProgress = service.JobProgress
	// TaskInfo is one /v1/tasks registry entry.
	TaskInfo = service.TaskInfo
	// Stats is the /v1/stats payload.
	Stats = service.Stats
	// Health is the /v1/healthz payload.
	Health = service.Health
	// Study is one submitted study as the server reports it.
	Study = service.Study
	// StudyProgress is a study's live per-cell view.
	StudyProgress = service.StudyProgress
	// StudyCellProgress is one grid cell's progress.
	StudyCellProgress = service.StudyCellProgress
	// CellState is one study cell's lifecycle state.
	CellState = service.CellState
	// ClusterPeerStats is one worker daemon's row in the fleet view.
	ClusterPeerStats = service.ClusterPeerStats
	// ClusterStatsView is the /v1/cluster/stats payload.
	ClusterStatsView = service.ClusterStats
)

// The lifecycle states of jobs and studies.
const (
	JobQueued   = service.JobQueued
	JobRunning  = service.JobRunning
	JobDone     = service.JobDone
	JobFailed   = service.JobFailed
	JobCanceled = service.JobCanceled
)

// APIError is a non-2xx response decoded from the server's JSON error
// envelope.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint (zero when the
	// response carried none). The daemon attaches it to queue-full
	// 503s but not to draining 503s, and the Submit paths use exactly
	// that distinction to decide whether backing off can help.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("awakemisd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// IsRetryable reports whether the request may succeed later (the
// server was draining or its queue full).
func (e *APIError) IsRetryable() bool {
	return e.StatusCode == http.StatusServiceUnavailable
}

// transient reports whether the error is a backoff-and-retry 503: the
// server explicitly said the condition is temporary.
func (e *APIError) transient() bool {
	return e.StatusCode == http.StatusServiceUnavailable && e.RetryAfter > 0
}

// Client talks to one awakemisd daemon.
type Client struct {
	baseURL string
	http    *http.Client
	// PollInterval paces Wait's status polling (default 25ms, backing
	// off 1.5x to 1s between polls).
	PollInterval time.Duration
	// MaxRetries bounds how many times Submit/SubmitStudy retry a
	// queue-full 503 (one marked Retry-After by the server) before
	// surfacing it, backing off exponentially with jitter between
	// attempts. 0 means the default 4; negative disables retrying.
	MaxRetries int
}

// New returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:7600"). httpClient nil means http.DefaultClient.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{baseURL: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// BaseURL returns the daemon base URL this client talks to.
func (c *Client) BaseURL() string { return c.baseURL }

// maxResponse bounds the response body do reads. A Job carries its
// whole Report, about 5.6 B per node for an MIS task, so the bound
// admits MIS reports up to about 12 million nodes.
const maxResponse = 64 << 20

// do issues one request and decodes the JSON response into out. A
// response body longer than maxResponse is an error.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var reqBody io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		reqBody = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, reqBody)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	traceid.Stamp(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponse+1))
	if err != nil {
		return err
	}
	if len(data) > maxResponse {
		return fmt.Errorf("client: %s %s response exceeds the %d MiB limit", method, path, maxResponse>>20)
	}
	if resp.StatusCode >= 300 {
		var apiErr struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		var retryAfter time.Duration
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
		return &APIError{StatusCode: resp.StatusCode, Message: msg, RetryAfter: retryAfter}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// submitBackoff runs a POST with bounded exponential backoff on
// queue-full 503s: attempts are spaced base·2ᵏ plus up to 100% jitter
// (decorrelating a thundering herd of retriers), capped at 2s per
// wait, at most MaxRetries retries, and every wait aborts promptly
// when ctx ends. Any other error — including a draining 503, which
// carries no Retry-After — is surfaced immediately.
func (c *Client) submitBackoff(ctx context.Context, path string, body, out any) error {
	retries := c.MaxRetries
	if retries == 0 {
		retries = 4
	}
	const maxWait = 2 * time.Second
	wait := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		err := c.do(ctx, http.MethodPost, path, body, out)
		apiErr := new(APIError)
		if err == nil || attempt >= retries || !errors.As(err, &apiErr) || !apiErr.transient() {
			return err
		}
		d := wait + rand.N(wait) // wait..2·wait
		if d > maxWait {
			d = maxWait
		}
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
		if wait *= 2; wait > maxWait {
			wait = maxWait
		}
	}
}

// Submit posts one spec and returns its job — possibly already done
// when served from the report cache. Queue-full rejections are
// retried with backoff (see MaxRetries). The submission runs under
// the ctx's trace id, minting one if absent, so every retry and the
// daemon-side records share it.
func (c *Client) Submit(ctx context.Context, spec awakemis.Spec) (*Job, error) {
	ctx, _ = traceid.Ensure(ctx)
	var job Job
	if err := c.submitBackoff(ctx, "/v1/jobs", spec, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Job fetches a job's current state.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Cancel asks the server to cancel the job and returns its final
// state. Other submitters of the same spec are unaffected.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	var job Job
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// poll fetches repeatedly until terminal reports the value final or
// ctx ends, pacing with the client's backoff (PollInterval, 1.5x up
// to 1s) plus up to 100% jitter per sleep — the submit path's
// decorrelation convention, so a fleet of waiters released by the
// same event doesn't poll in lockstep. Every wait aborts promptly
// when ctx ends. onPoll, when non-nil, observes every fetched state —
// the shared loop behind Wait and WaitStudy.
func poll[T any](ctx context.Context, c *Client, fetch func(context.Context) (*T, error), terminal func(*T) bool, onPoll func(*T)) (*T, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	for {
		v, err := fetch(ctx)
		if err != nil {
			return nil, err
		}
		if onPoll != nil {
			onPoll(v)
		}
		if terminal(v) {
			return v, nil
		}
		timer := time.NewTimer(interval + rand.N(interval)) // interval..2·interval
		select {
		case <-ctx.Done():
			timer.Stop()
			return v, ctx.Err()
		case <-timer.C:
		}
		if interval = interval * 3 / 2; interval > time.Second {
			interval = time.Second
		}
	}
}

// Wait polls the job until it reaches a terminal state or ctx ends.
func (c *Client) Wait(ctx context.Context, id string) (*Job, error) {
	return poll(ctx, c,
		func(ctx context.Context) (*Job, error) { return c.Job(ctx, id) },
		func(j *Job) bool { return j.Status.Terminal() }, nil)
}

// WaitJob follows the job to a terminal state, preferring the server's
// SSE event stream (GET /v1/jobs/{id}/events) — every state change,
// including live progress, arrives as it happens — and transparently
// falling back to Wait's polling loop against daemons without the
// stream. onUpdate, when non-nil, observes every received state.
func (c *Client) WaitJob(ctx context.Context, id string, onUpdate func(*Job)) (*Job, error) {
	job, err := c.waitSSE(ctx, id, onUpdate)
	if err == nil {
		return job, nil
	}
	if ctx.Err() != nil {
		return job, ctx.Err()
	}
	// The stream failed mid-flight or isn't served (older daemon,
	// buffering proxy): fall back to polling.
	return poll(ctx, c,
		func(ctx context.Context) (*Job, error) { return c.Job(ctx, id) },
		func(j *Job) bool { return j.Status.Terminal() }, onUpdate)
}

// errNoStream marks an events endpoint that did not produce an SSE
// stream; WaitJob and WaitStudy fall back to polling.
var errNoStream = errors.New("client: no event stream")

// waitSSE consumes the job's SSE stream until a terminal state.
func (c *Client) waitSSE(ctx context.Context, id string, onUpdate func(*Job)) (*Job, error) {
	return streamSSE(ctx, c, "/v1/jobs/"+id+"/events",
		func(j *Job) bool { return j.Status.Terminal() }, onUpdate)
}

// streamSSE consumes one record's SSE stream until terminal reports a
// frame final — the shared transport behind waitSSE and WaitStudy.
// Frames follow the event-stream format: each "data" line (the value
// after "data:", minus one leading space) adds a line to the event, a
// blank line dispatches it as one JSON frame, comments and other
// fields are skipped, and an event the stream's end cuts off is
// dropped. Lines end in LF or CRLF. Any transport or framing problem
// maps to errNoStream so the caller can fall back to polling.
func streamSSE[T any](ctx context.Context, c *Client, path string, terminal func(*T) bool, onUpdate func(*T)) (*T, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	traceid.Stamp(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, errNoStream
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK ||
		!strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return nil, errNoStream
	}
	const maxFrame = 64 << 20 // a done frame carries the full report
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), maxFrame)
	// data accumulates the event's lines, reused across events:
	// json.Unmarshal copies whatever it keeps.
	var data []byte
	pending := false // the event has a data line
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			if !pending {
				continue
			}
			v := new(T)
			if err := json.Unmarshal(data, v); err != nil {
				return nil, errNoStream
			}
			data, pending = data[:0], false
			if onUpdate != nil {
				onUpdate(v)
			}
			if terminal(v) {
				return v, nil
			}
			continue
		}
		field, value, _ := bytes.Cut(line, []byte(":"))
		if string(field) != "data" {
			continue // a comment (empty field name) or another field
		}
		if pending {
			data = append(data, '\n')
		}
		if data = append(data, bytes.TrimPrefix(value, []byte(" "))...); len(data) > maxFrame {
			return nil, errNoStream
		}
		pending = true
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return nil, errNoStream // stream ended without a terminal state
}

// Run submits the spec and waits for its Report: the remote
// equivalent of awakemis.Run. A failed or canceled job is an
// error.
func (c *Client) Run(ctx context.Context, spec awakemis.Spec) (*awakemis.Report, error) {
	ctx, _ = traceid.Ensure(ctx)
	job, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	if !job.Status.Terminal() {
		if job, err = c.WaitJob(ctx, job.ID, nil); err != nil {
			return nil, err
		}
	}
	switch job.Status {
	case JobDone:
		return job.DecodeReport()
	case JobFailed:
		return nil, fmt.Errorf("awakemisd: job %s failed: %s", job.ID, job.Error)
	default:
		return nil, fmt.Errorf("awakemisd: job %s was %s", job.ID, job.Status)
	}
}

// SubmitStudy posts one StudySpec; the study expands and aggregates
// asynchronously (poll WaitStudy). Queue-full rejections are retried
// with backoff (see MaxRetries). The study runs under the ctx's trace
// id, minting one if absent; every sub-job inherits it.
func (c *Client) SubmitStudy(ctx context.Context, ss awakemis.StudySpec) (*Study, error) {
	ctx, _ = traceid.Ensure(ctx)
	var study Study
	if err := c.submitBackoff(ctx, "/v1/studies", ss, &study); err != nil {
		return nil, err
	}
	return &study, nil
}

// Study fetches a study's current state.
func (c *Client) Study(ctx context.Context, id string) (*Study, error) {
	var study Study
	if err := c.do(ctx, http.MethodGet, "/v1/studies/"+id, nil, &study); err != nil {
		return nil, err
	}
	return &study, nil
}

// CancelStudy asks the server to cancel the study: unfinished
// sub-runs are canceled and no artifact is produced.
func (c *Client) CancelStudy(ctx context.Context, id string) (*Study, error) {
	var study Study
	if err := c.do(ctx, http.MethodDelete, "/v1/studies/"+id, nil, &study); err != nil {
		return nil, err
	}
	return &study, nil
}

// WaitStudy follows the study to a terminal state, preferring the
// server's SSE event stream (GET /v1/studies/{id}/events) — every
// progress change arrives as it happens — and transparently falling
// back to polling against daemons without the stream. onPoll, when
// non-nil, receives every observed state — the CLI uses it for
// progress lines.
func (c *Client) WaitStudy(ctx context.Context, id string, onPoll func(*Study)) (*Study, error) {
	terminal := func(s *Study) bool { return s.Status.Terminal() }
	study, err := streamSSE(ctx, c, "/v1/studies/"+id+"/events", terminal, onPoll)
	if err == nil {
		return study, nil
	}
	if ctx.Err() != nil {
		return study, ctx.Err()
	}
	// The stream failed mid-flight or isn't served (older daemon,
	// buffering proxy): fall back to polling.
	return poll(ctx, c,
		func(ctx context.Context) (*Study, error) { return c.Study(ctx, id) },
		terminal, onPoll)
}

// RunStudy submits the study and waits for its artifact: the remote
// equivalent of awakemis.RunStudy. A failed or canceled study is an
// error.
func (c *Client) RunStudy(ctx context.Context, ss awakemis.StudySpec) (*awakemis.StudyResult, error) {
	study, err := c.SubmitStudy(ctx, ss)
	if err != nil {
		return nil, err
	}
	if !study.Status.Terminal() {
		if study, err = c.WaitStudy(ctx, study.ID, nil); err != nil {
			return nil, err
		}
	}
	switch study.Status {
	case JobDone:
		return study.DecodeResult()
	case JobFailed:
		return nil, fmt.Errorf("awakemisd: study %s failed: %s", study.ID, study.Error)
	default:
		return nil, fmt.Errorf("awakemisd: study %s was %s", study.ID, study.Status)
	}
}

// Tasks lists the server's task registry.
func (c *Client) Tasks(ctx context.Context) ([]TaskInfo, error) {
	var infos []TaskInfo
	if err := c.do(ctx, http.MethodGet, "/v1/tasks", nil, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Studies lists every study the server remembers, newest first, with
// live progress attached but Result bodies stripped (fetch one study
// by id for its artifact).
func (c *Client) Studies(ctx context.Context) ([]Study, error) {
	var studies []Study
	if err := c.do(ctx, http.MethodGet, "/v1/studies", nil, &studies); err != nil {
		return nil, err
	}
	return studies, nil
}

// Stats fetches the server's counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// ClusterStats fetches the fleet-wide aggregate a cluster front
// serves. Daemons not fronting a cluster answer 404.
func (c *Client) ClusterStats(ctx context.Context) (*ClusterStatsView, error) {
	var cs ClusterStatsView
	if err := c.do(ctx, http.MethodGet, "/v1/cluster/stats", nil, &cs); err != nil {
		return nil, err
	}
	return &cs, nil
}

// Health checks /v1/healthz and returns the daemon's build identity.
// A draining or unreachable server is an error (with a nil Health).
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h); err != nil {
		return nil, err
	}
	if h.Status != "ok" {
		return nil, errors.New("awakemisd: health status " + h.Status)
	}
	return &h, nil
}
