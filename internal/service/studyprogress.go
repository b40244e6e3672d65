package service

import (
	"time"
)

// CellState is one study cell's lifecycle state on the wire. It is
// derived from the cell's trial sub-jobs, so it moves exactly as far
// as they do: queued → running → done, with "cached" marking a cell
// every one of whose trials was served from the report cache without
// an engine run (a cell that mixes cached and executed trials reports
// "done" with a nonzero Cached count).
type CellState string

const (
	CellQueued   CellState = "queued"
	CellRunning  CellState = "running"
	CellDone     CellState = "done"
	CellCached   CellState = "cached"
	CellFailed   CellState = "failed"
	CellCanceled CellState = "canceled"
)

// StudyCellProgress is the live view of one aggregation cell: its
// identity (mirroring awakemis.StudyCell) plus how far its trials
// have gotten.
type StudyCellProgress struct {
	Index  int    `json:"index"`
	Task   string `json:"task"`
	Family string `json:"family"`
	N      int    `json:"n"`
	Engine string `json:"engine"`
	// State summarizes the cell's trials; Done of Trials sub-runs have
	// produced a report, Cached of them straight from the cache.
	State  CellState `json:"state"`
	Done   int       `json:"done"`
	Trials int       `json:"trials"`
	Cached int       `json:"cached,omitempty"`
}

// StudyProgress is the live view of a running study, attached to the
// wire Study on GET /v1/studies/{id} and the SSE event stream. The
// per-cell states and every counter are monotone while the study
// runs, and the terminal view is frozen at completion — a finished
// study keeps reporting which cells were served from cache and how
// many rounds its grid actually executed. Best-effort observability
// data; it never feeds into the StudyResult artifact.
type StudyProgress struct {
	// Cells is the per-cell ticker, in grid enumeration order.
	Cells []StudyCellProgress `json:"cells"`
	// Aggregate cell counts by state (cached cells are not double
	// counted under done).
	CellsQueued   int `json:"cells_queued"`
	CellsRunning  int `json:"cells_running"`
	CellsDone     int `json:"cells_done"`
	CellsCached   int `json:"cells_cached"`
	CellsFailed   int `json:"cells_failed,omitempty"`
	CellsCanceled int `json:"cells_canceled,omitempty"`
	// RunsDone counts sub-runs that produced a report (the live
	// counterpart of the study's Done field, which advances in spec
	// order); RunsCached counts the ones served from cache.
	RunsDone   int `json:"runs_done"`
	RunsCached int `json:"runs_cached,omitempty"`
	// ExecutedRounds totals rounds executed by the study's sub-runs so
	// far (live trackers plus finished jobs); EngineSeconds totals the
	// engine time they took (zero through a cluster front, where the
	// worker daemons own the engine clocks).
	ExecutedRounds int64   `json:"executed_rounds"`
	EngineSeconds  float64 `json:"engine_seconds"`
	// LanesVectorized counted sub-runs executed as lanes of one merged
	// trial pass. Only older daemons send it; current daemons run every
	// trial on its own, so it decodes as 0.
	LanesVectorized int `json:"lanes_vectorized,omitempty"`
	// ElapsedMS is wall time since submission; ETAMS extrapolates the
	// remaining wall time from the completion rate so far (omitted
	// until the first sub-run finishes, zero once terminal).
	ElapsedMS float64 `json:"elapsed_ms"`
	ETAMS     float64 `json:"eta_ms,omitempty"`
}

// studyProgressLocked assembles the study's live progress view from
// its sub-jobs. Callers hold s.mu; the terminal view is frozen by
// finishStudyLocked, after which st.final is returned as-is (the
// sub-job references are released there).
func (s *Server) studyProgressLocked(st *studyRun) *StudyProgress {
	if st.final != nil {
		return st.final
	}
	trials := max(1, st.Spec.Trials)
	p := &StudyProgress{Cells: make([]StudyCellProgress, len(st.cells))}
	for i, c := range st.cells {
		cp := StudyCellProgress{
			Index: c.Index, Task: c.Task, Family: c.Family,
			N: c.N, Engine: string(c.Engine), Trials: trials,
		}
		var failed, canceled, running int
		lo := min(i*trials, len(st.jobs))
		hi := min(lo+trials, len(st.jobs))
		for _, j := range st.jobs[lo:hi] {
			switch j.Status {
			case JobDone:
				cp.Done++
				if j.Cached {
					cp.Cached++
				}
			case JobFailed:
				failed++
			case JobCanceled:
				canceled++
			case JobRunning:
				running++
			}
			// Executed-round / engine-time attribution: finished jobs carry
			// their stamped totals, live ones are read off their flight's
			// tracker (shared with the engine goroutine; totals stamped at
			// finish come from the same tracker, so the sum is monotone).
			rounds, simNS := j.rounds, j.simNS
			if !j.Status.Terminal() && j.flight != nil && j.flight.tracker != nil {
				rounds, simNS = j.flight.tracker.totals()
			}
			p.ExecutedRounds += rounds
			p.EngineSeconds += float64(simNS) / 1e9
		}
		switch {
		case failed > 0:
			cp.State = CellFailed
			p.CellsFailed++
		case canceled > 0:
			cp.State = CellCanceled
			p.CellsCanceled++
		case cp.Done == trials && cp.Cached == trials:
			cp.State = CellCached
			p.CellsCached++
		case cp.Done == trials:
			cp.State = CellDone
			p.CellsDone++
		case running > 0:
			cp.State = CellRunning
			p.CellsRunning++
		default:
			cp.State = CellQueued
			p.CellsQueued++
		}
		p.RunsDone += cp.Done
		p.RunsCached += cp.Cached
		p.Cells[i] = cp
	}
	p.ElapsedMS = float64(time.Since(st.started)) / float64(time.Millisecond)
	// Rate extrapolation: sub-runs completed so far set the pace for
	// the remainder. (Cells finish roughly geometrically under the
	// cache mix, so this decays toward the truth as the grid drains —
	// good enough for a ticker, never for results.)
	if remaining := st.Total - p.RunsDone; p.RunsDone > 0 && remaining > 0 {
		p.ETAMS = p.ElapsedMS * float64(remaining) / float64(p.RunsDone)
	}
	return p
}

// finalizeStudyProgressLocked freezes the study's terminal progress
// view. Cells whose sub-jobs never reached a terminal report — the
// submission phase hadn't gotten to them, or their runs were canceled
// with the study — are folded into "canceled" so the frozen view
// accounts for every cell. Callers hold s.mu.
func (s *Server) finalizeStudyProgressLocked(st *studyRun) {
	p := s.studyProgressLocked(st)
	if st.final != nil {
		return
	}
	for i := range p.Cells {
		switch p.Cells[i].State {
		case CellQueued, CellRunning:
			p.Cells[i].State = CellCanceled
			p.CellsCanceled++
		}
	}
	p.CellsQueued, p.CellsRunning = 0, 0
	p.ETAMS = 0
	st.final = p
	if s.studyCells == nil {
		s.studyCells = map[string]int64{}
	}
	for _, c := range p.Cells {
		s.studyCells[string(c.State)]++
	}
}
