package service

import (
	"math"
	"sync"
	"time"

	"awakemis"
)

// JobProgress is the live view of a running job's simulation,
// attached to the wire Job while its flight executes (GET
// /v1/jobs/{id} and the SSE event stream). All fields are
// best-effort observability data — they never feed back into results.
type JobProgress struct {
	// Rounds is the round horizon reached so far (last observed round
	// number + 1); Executed counts rounds actually executed (all-asleep
	// rounds are skipped by the engines).
	Rounds   int64 `json:"rounds"`
	Executed int64 `json:"executed"`
	// Awake is the awake-node count of the last observed round, and
	// AwakeFrac the same as a fraction of the graph size.
	Awake     int     `json:"awake"`
	AwakeFrac float64 `json:"awake_frac"`
	// ElapsedMS is wall time since the simulation started.
	ElapsedMS float64 `json:"elapsed_ms"`
	// ETAMS estimates the remaining wall time by geometric-decay
	// extrapolation of the awake count (the paper's algorithms put
	// nodes to sleep at roughly constant rate in log-scale). Omitted
	// until the awake count is decaying.
	ETAMS float64 `json:"eta_ms,omitempty"`
}

// progressTracker is the per-flight awakemis.RoundObserver behind live
// job progress: the engine goroutine feeds it one flat RoundStat per
// round, HTTP handlers snapshot it concurrently. It doubles as the
// engine-telemetry source for /v1/stats and /metrics (rounds
// simulated, sim-seconds).
//
// A round takes no lock: ObserveRound tallies into fields only the
// engine goroutine touches, and publishes them into the mutex-guarded
// view on the first round, after every publishEvery of summed engine
// time, and when the worker calls flush as the run returns. Readers
// therefore see a view at most publishEvery of engine time old, and
// exact once the run is over.
type progressTracker struct {
	n     int // graph size, for AwakeFrac (0 = unknown)
	start time.Time

	// The engine goroutine's tallies, published by flush.
	run struct {
		rounds, executed int64
		awake, peak      int
		simNS            int64
		unpublished      int64 // engine time since the last publish
	}

	mu     sync.Mutex
	cur    JobProgress
	peak   int   // peak awake count, for the ETA extrapolation
	simNS  int64 // summed per-round engine time
	remote bool  // cur was relayed from a worker daemon (front mode)
}

// publishEvery is how much engine time ObserveRound lets pass between
// publishes of the tracker's tallies; the SSE sampler ticks every
// eventPollInterval.
const publishEvery = int64(10 * time.Millisecond)

func newProgressTracker(n int) *progressTracker {
	return &progressTracker{n: n, start: time.Now()}
}

// ObserveRound implements awakemis.RoundObserver. O(1) per round, and
// lock-free but for the periodic publish.
func (t *progressTracker) ObserveRound(st awakemis.RoundStat) {
	r := &t.run
	r.rounds = st.Round + 1
	r.executed++
	r.awake = st.Awake
	if st.Awake > r.peak {
		r.peak = st.Awake
	}
	r.simNS += st.ElapsedNS
	r.unpublished += st.ElapsedNS
	if r.executed == 1 || r.unpublished >= publishEvery {
		t.flush()
	}
}

// flush publishes the engine goroutine's tallies into the locked view.
// It must be called from the engine goroutine, or after the run has
// returned, as the worker does.
func (t *progressTracker) flush() {
	r := &t.run
	r.unpublished = 0
	t.mu.Lock()
	t.cur.Rounds = r.rounds
	t.cur.Executed = r.executed
	t.cur.Awake = r.awake
	if t.n > 0 {
		t.cur.AwakeFrac = float64(r.awake) / float64(t.n)
	}
	t.peak = r.peak
	t.simNS = r.simNS
	t.mu.Unlock()
}

// setRemote replaces the tracked state with a progress view relayed
// from the worker daemon actually running the simulation (front mode).
func (t *progressTracker) setRemote(p JobProgress) {
	t.mu.Lock()
	t.cur = p
	t.remote = true
	t.mu.Unlock()
}

// snapshot returns the published progress view, or nil before the
// first round (or relayed update) lands.
func (t *progressTracker) snapshot() *JobProgress {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur.Executed == 0 && !t.remote {
		return nil
	}
	p := t.cur
	if !t.remote {
		p.ElapsedMS = float64(time.Since(t.start)) / float64(time.Millisecond)
		// awake(t) ≈ peak·r^t for some decay r<1, so the remaining
		// rounds-to-one scale like log(awake)/log(peak/awake) of the
		// elapsed ones. Only meaningful once decay is underway.
		if t.peak > 0 && p.Awake > 1 && p.Awake < t.peak {
			p.ETAMS = p.ElapsedMS * math.Log(float64(p.Awake)) / math.Log(float64(t.peak)/float64(p.Awake))
		}
	}
	return &p
}

// totals returns the published rounds executed and summed per-round
// engine time: exact once the worker has flushed the finished run.
// Through a front the rounds are the worker daemon's relayed count and
// the engine time stays zero: a front never feeds its tracker engine
// rounds.
func (t *progressTracker) totals() (rounds, simNS int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur.Executed, t.simNS
}
