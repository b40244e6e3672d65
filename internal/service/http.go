package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"awakemis"
	"awakemis/internal/buildinfo"
	"awakemis/internal/traceid"
)

// Sentinel errors the API layer maps to HTTP statuses; together with
// awakemis.ErrInvalidSpec (400) they give callers of Submit/Cancel the
// same discrimination the HTTP client gets.
var (
	// ErrUnavailable: the server is draining or the queue is full (503).
	ErrUnavailable = errors.New("service unavailable")
	// ErrNotFound: no such job (404).
	ErrNotFound = errors.New("not found")
	// ErrConflict: the job is already in a terminal state (409).
	ErrConflict = errors.New("conflict")
)

// ErrOverloaded is the queue-full case of ErrUnavailable: transient
// by construction, so its 503 carries a Retry-After header and the
// client package backs off and retries. A draining 503 deliberately
// does not — the server is going away, retrying it is futile.
var ErrOverloaded = fmt.Errorf("%w: overloaded", ErrUnavailable)

// TaskInfo is the /v1/tasks wire view of one registry entry.
type TaskInfo struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	Summary  string `json:"summary"`
	IDScheme string `json:"id_scheme"`
}

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// statusWriter captures the response status for the request log while
// passing Flush through — the SSE stream needs the flusher even behind
// the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// middleware wraps every route with the cross-cutting request
// concerns: adopt (or mint) the X-Awakemis-Trace-Id header into the
// request context and echo it on the response, emit one structured
// request record, and — when metrics are on — feed the per-route
// latency histogram. The route label is the matched ServeMux pattern
// ("POST /v1/jobs", "GET /v1/jobs/{id}", ...), so path parameters
// never explode label cardinality; unmatched requests group under
// "other".
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := traceid.FromRequest(r)
		if id == "" {
			id = traceid.New()
		}
		w.Header().Set(traceid.Header, id)
		r = r.WithContext(traceid.With(r.Context(), id))
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		route := r.Pattern
		if route == "" {
			route = "other"
		}
		elapsed := time.Since(start)
		if s.metrics != nil {
			s.metrics.observe(route, elapsed.Seconds())
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		s.logger.Info("http request",
			"trace_id", id, "method", r.Method, "path", r.URL.Path,
			"route", route, "status", status, "duration_ns", elapsed.Nanoseconds())
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	writeBody(w, status, data, err)
}

// writeJob is writeJSON for a Job, encoded by marshalJob.
func writeJob(w http.ResponseWriter, status int, job Job) {
	data, err := marshalJob(job)
	writeBody(w, status, data, err)
}

// writeBody writes an encoded JSON response, or a 500 if encoding
// failed.
func writeBody(w http.ResponseWriter, status int, data []byte, err error) {
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// jobTail holds the Job fields that follow Report on the wire, under
// Job's own tags.
type jobTail struct {
	TraceID  string       `json:"trace_id,omitempty"`
	Progress *JobProgress `json:"progress,omitempty"`
}

// marshalJob returns json.Marshal(job). For a job with a report it
// encodes the fields before Report and those after it, and splices the
// report bytes between them as they are: json.Marshal would scan and
// copy a json.RawMessage again even when it is already compact, which
// costs a cache hit more than the rest of its encoding. The splice is
// byte-identical because a Job's report bytes are always json.Marshal
// output (see tieredCache).
func marshalJob(job Job) ([]byte, error) {
	if len(job.Report) == 0 {
		return json.Marshal(job)
	}
	tail, err := json.Marshal(jobTail{TraceID: job.TraceID, Progress: job.Progress})
	if err != nil {
		return nil, err
	}
	report := job.Report
	job.Report, job.TraceID, job.Progress = nil, "", nil
	head, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	// head and tail are JSON objects; head always holds the id key, and
	// tail is "{}" when both of its fields are empty.
	data := make([]byte, 0, len(head)+len(`,"report":`)+len(report)+len(tail))
	data = append(data, head[:len(head)-1]...)
	data = append(data, `,"report":`...)
	data = append(data, report...)
	if len(tail) > len("{}") {
		data = append(data, ',')
	}
	return append(data, tail[1:]...), nil
}

// writeError maps an error to its HTTP status: 400 for malformed
// specs, 503 for drain/overload (queue-full 503s add Retry-After so
// clients know backing off can succeed), 404/409 for job lookups,
// 500 otherwise.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, awakemis.ErrInvalidSpec):
		status = http.StatusBadRequest
	case errors.Is(err, ErrUnavailable):
		status = http.StatusServiceUnavailable
		if errors.Is(err, ErrOverloaded) {
			w.Header().Set("Retry-After", "1")
		}
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrConflict):
		status = http.StatusConflict
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

// handleSubmit is POST /v1/jobs: the body is one Spec. Responds 200
// with a terminal job on a cache hit, 202 with a queued/running job
// otherwise.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var spec awakemis.Spec
	if err := dec.Decode(&spec); err != nil {
		writeError(w, fmt.Errorf("%w: decoding spec: %s", awakemis.ErrInvalidSpec, err))
		return
	}
	job, err := s.SubmitTraced(spec, traceid.From(r.Context()))
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusAccepted
	if job.Status.Terminal() {
		status = http.StatusOK
	}
	writeJob(w, status, job)
}

// handleGetJob is GET /v1/jobs/{id}.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.Lookup(id)
	if !ok {
		writeError(w, fmt.Errorf("%w: no job %s", ErrNotFound, id))
		return
	}
	writeJob(w, http.StatusOK, job)
}

// handleCancelJob is DELETE /v1/jobs/{id}.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJob(w, http.StatusOK, job)
}

// handleSubmitStudy is POST /v1/studies: the body is one StudySpec.
// Always 202 — studies expand and aggregate asynchronously; poll GET
// /v1/studies/{id} until terminal (sub-runs served from cache resolve
// near-instantly, but the artifact is still assembled off-request).
func (s *Server) handleSubmitStudy(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var ss awakemis.StudySpec
	if err := dec.Decode(&ss); err != nil {
		writeError(w, fmt.Errorf("%w: decoding study spec: %s", awakemis.ErrInvalidSpec, err))
		return
	}
	study, err := s.SubmitStudyTraced(ss, traceid.From(r.Context()))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, study)
}

// handleListStudies is GET /v1/studies: every queryable study
// newest-first, Results stripped (fetch an artifact by id).
func (s *Server) handleListStudies(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.ListStudies())
}

// handleGetStudy is GET /v1/studies/{id}.
func (s *Server) handleGetStudy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	study, ok := s.LookupStudy(id)
	if !ok {
		writeError(w, fmt.Errorf("%w: no study %s", ErrNotFound, id))
		return
	}
	writeJSON(w, http.StatusOK, study)
}

// handleCancelStudy is DELETE /v1/studies/{id}.
func (s *Server) handleCancelStudy(w http.ResponseWriter, r *http.Request) {
	study, err := s.CancelStudy(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, study)
}

// handleTasks is GET /v1/tasks: the task registry.
func (s *Server) handleTasks(w http.ResponseWriter, _ *http.Request) {
	tasks := awakemis.Tasks()
	infos := make([]TaskInfo, len(tasks))
	for i, t := range tasks {
		infos[i] = TaskInfo{Name: t.Name, Kind: t.Kind, Summary: t.Summary, IDScheme: t.IDScheme}
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleStats is GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// Health is the /v1/healthz body: liveness plus the build identity
// of the serving binary, so every daemon in a cluster can be
// identified from the outside.
type Health struct {
	Status string `json:"status"`
	buildinfo.Info
}

// handleHealthz is GET /v1/healthz: 200 while serving, 503 while
// draining; either way the body carries the daemon's build info.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	payload := Health{Status: "ok", Info: buildinfo.Get()}
	if draining {
		payload.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, payload)
		return
	}
	writeJSON(w, http.StatusOK, payload)
}
