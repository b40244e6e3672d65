package service

import (
	"sync"
	"testing"

	"awakemis"
)

// RunGate holds a server's local runs at an executed round until the
// test releases it: the deterministic stand-in for a job that is slow
// enough to queue work behind, cancel mid-run or watch live.
type RunGate struct {
	round   int64
	held    chan struct{}
	release chan struct{}
	once    sync.Once
}

// HoldRuns makes every local run that srv starts from now on stop
// after its round-th executed round, with that round observed by the
// job's progress tracker, until the test calls Release. The test's
// cleanup releases the gate before the server shuts down, so a test
// that fails while a run is held does not hang.
func HoldRuns(t testing.TB, srv *Server, round int64) *RunGate {
	g := &RunGate{round: round, held: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(g.Release)
	srv.mu.Lock()
	srv.wrapObserver = func(obs awakemis.RoundObserver) awakemis.RoundObserver {
		return &gatedObserver{gate: g, obs: obs}
	}
	srv.mu.Unlock()
	return g
}

// Held blocks until a run has reached the gate. The run stays at its
// round until Release, so one Held call matches one held run.
func (g *RunGate) Held() { <-g.held }

// Release lets every held run continue and stops holding later runs.
func (g *RunGate) Release() { g.once.Do(func() { close(g.release) }) }

// gatedObserver is one run's observer behind a RunGate.
type gatedObserver struct {
	gate     *RunGate
	obs      awakemis.RoundObserver
	executed int64
}

func (o *gatedObserver) ObserveRound(st awakemis.RoundStat) {
	o.obs.ObserveRound(st)
	o.executed++
	if o.executed != o.gate.round {
		return
	}
	select {
	case o.gate.held <- struct{}{}:
		<-o.gate.release
	case <-o.gate.release:
	}
}
