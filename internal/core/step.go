package core

// Awake-MIS's phase loop as an explicit state machine. Each node
// attends its O(log log n) communication rounds (staged one wake at a
// time through a sim.Machine) and, in its own phase, runs the LDT-MIS
// window in place — so the paper's headline algorithm executes on the
// stepped engine's inline hot path with no per-node goroutine.

import (
	"sync"

	"awakemis/internal/ldtmis"
	"awakemis/internal/misproto"
	"awakemis/internal/sim"
	"awakemis/internal/vtree"
)

// program is one run's state shared by its nodes: the output, the
// timetable, and the pool of LDT-MIS window frames.
type program struct {
	res     *Result
	sched   *Schedule
	idSpace int64
	frames  frames
}

// frames is a run's pool of LDT-MIS window frames. A node takes a
// frame when its own-phase window starts and returns it when the
// window ends, so a run allocates as many frames as it has windows in
// flight at once, not one per window.
//
// Frames are handed out in one fixed order, which restarts once every
// frame taken has come back. A phase's windows all start in its
// communication round and all end before the next phase's start, so
// each phase takes the frames from the first on, in node order, and a
// round's wakes walk them in the order they were allocated, not in the
// scattered order in which the previous phase's windows ended. The
// mutex is needed because OnWake is sharded across the worker pool in
// busy rounds.
type frames struct {
	mu    sync.Mutex
	all   []*ldtmis.Session // every frame, in hand-out order
	taken int               // all[:taken] were handed out since the last restart
	back  int               // how many of those have come back
}

// get takes the next frame in order, allocating it on first use.
func (f *frames) get() *ldtmis.Session {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.taken == len(f.all) {
		f.all = append(f.all, new(ldtmis.Session))
	}
	s := f.all[f.taken]
	f.taken++
	return s
}

// put clears a finished window's frame, so the pool pins none of its
// payloads, and counts it back.
func (f *frames) put(s *ldtmis.Session) {
	*s = ldtmis.Session{}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.back++; f.back == f.taken {
		f.taken, f.back = 0, 0
	}
}

type stepNode struct {
	sim.Machine
	env *sim.NodeEnv
	p   *program
	id  int64
	// phase is the phase whose communication round the node attends,
	// an element of vtree.AwakeRounds(myPhase, TotalPhases); it is 0
	// while the node idles through round 0 before its first, and once
	// the set is exhausted.
	phase   int
	myPhase int
	state   misproto.State
	// window is the frame of the node's own-phase LDT-MIS window while
	// it runs.
	window *ldtmis.Session
	// sendFn and recvFn are c.send and c.recv, bound once.
	sendFn func(*sim.Outbox)
	recvFn func([]sim.Inbound)
}

// StepProgram returns the per-node Awake-MIS program. Its nodes share
// one pool of window frames, so a StepProgram serves one run at a time
// or several at once.
func StepProgram(res *Result, sched *Schedule, params Params, n int) sim.StepProgram {
	params = params.WithDefaults(n)
	p := &program{res: res, sched: sched, idSpace: params.IDSpace}
	return func(env *sim.NodeEnv) sim.StepNode {
		return &stepNode{env: env, p: p}
	}
}

func (c *stepNode) Start(out *sim.Outbox) {
	rng, sched := c.env.Rand, c.p.sched
	c.id = rng.Int63n(c.p.idSpace) + 1
	level, j := sched.SampleBatch(rng.Float64(), rng.Float64())
	c.myPhase = sched.Phase(level, j)
	c.p.res.Batch[c.env.ID] = c.myPhase
	first := vtree.NextAwakeRound(c.myPhase, sched.TotalPhases, 0)
	c.sendFn, c.recvFn = c.send, c.recv

	c.Begin(out, func() {
		if sched.PhaseStart(first) == 0 {
			// Phase 1 is this node's first communication round and starts
			// at round 0, the model's initial all-awake round.
			c.phase = first
			c.attend()
			return
		}
		c.Yield(0, nil, c.recvFn)
	})
}

// attend stages the communication round of phase c.phase, or finishes
// the node when its communication set is exhausted or the node has
// learned it is not in the MIS (nothing more to learn or announce).
func (c *stepNode) attend() {
	if c.phase == 0 || c.state == misproto.NotInMIS {
		c.p.res.InMIS[c.env.ID] = c.state == misproto.InMIS
		return // no yield: the node halts
	}
	c.Yield(c.p.sched.PhaseStart(c.phase), c.sendFn, c.recvFn)
}

func (c *stepNode) send(out *sim.Outbox) {
	out.Broadcast(misproto.StateMsg{State: c.state})
}

func (c *stepNode) recv(in []sim.Inbound) {
	sched := c.p.sched
	r := c.phase
	if r == 0 {
		// Round 0, idled through: go on to the first communication round.
		c.phase = vtree.NextAwakeRound(c.myPhase, sched.TotalPhases, 0)
		c.attend()
		return
	}
	if c.state == misproto.Undecided {
		for _, m := range in {
			if sm, ok := m.Msg.(misproto.StateMsg); ok && sm.State == misproto.InMIS {
				c.state = misproto.NotInMIS
				break
			}
		}
	}
	c.phase = vtree.NextAwakeRound(c.myPhase, sched.TotalPhases, r)
	if r == c.myPhase && c.state == misproto.Undecided {
		// The node's own phase: run its LDT-MIS window, then go on.
		c.window = c.p.frames.get()
		c.window.Start(&c.Machine, c.env.Rand, c.env.Bandwidth,
			sched.PhaseStart(r)+1, c.id, sched.NP, sched.Variant, &c.state, c.endWindow)
		return
	}
	c.attend()
}

// endWindow is the own-phase window's continuation: it returns the
// window's frame, then goes on. The window calls it in tail position,
// so nothing reads the frame once it is back in the pool.
func (c *stepNode) endWindow() {
	c.p.frames.put(c.window)
	c.window = nil
	c.attend()
}
