package core

// Awake-MIS's phase loop as an explicit state machine. Each node
// attends its O(log log n) communication rounds (staged one wake at a
// time through a sim.Machine) and, in its own phase, runs the LDT-MIS
// window in place — so the paper's headline algorithm executes on the
// stepped engine's inline hot path with no per-node goroutine.

import (
	"awakemis/internal/ldtmis"
	"awakemis/internal/misproto"
	"awakemis/internal/sim"
	"awakemis/internal/vtree"
)

type stepNode struct {
	sim.Machine
	env     *sim.NodeEnv
	res     *Result
	sched   *Schedule
	idSpace int64
	id      int64
	state   misproto.State
	// rounds is the node's communication set (phases it attends);
	// rounds[i] is the one being attended, and i < 0 while the node
	// idles through round 0 before its first.
	rounds  []int
	i       int
	myPhase int
	// sendFn and recvFn are c.send and c.recv, bound once.
	sendFn func(*sim.Outbox)
	recvFn func([]sim.Inbound)
}

// StepProgram returns the per-node Awake-MIS program.
func StepProgram(res *Result, sched *Schedule, params Params, n int) sim.StepProgram {
	params = params.WithDefaults(n)
	return func(env *sim.NodeEnv) sim.StepNode {
		return &stepNode{env: env, res: res, sched: sched, idSpace: params.IDSpace}
	}
}

func (c *stepNode) Start(out *sim.Outbox) {
	rng := c.env.Rand
	c.id = rng.Int63n(c.idSpace) + 1
	level, j := c.sched.SampleBatch(rng.Float64(), rng.Float64())
	c.myPhase = c.sched.Phase(level, j)
	c.res.Batch[c.env.ID] = c.myPhase
	c.rounds = vtree.AwakeRounds(c.myPhase, c.sched.TotalPhases)
	c.sendFn, c.recvFn = c.send, c.recv

	c.Begin(out, func() {
		if c.sched.PhaseStart(c.rounds[0]) == 0 {
			// Phase 1 is this node's first communication round and starts
			// at round 0, the model's initial all-awake round.
			c.attend()
			return
		}
		c.i = -1
		c.Yield(0, nil, c.recvFn)
	})
}

// attend stages communication round rounds[i] of the node's schedule, or
// finishes the node when the schedule is exhausted or the node has
// learned it is not in the MIS (nothing more to learn or announce).
func (c *stepNode) attend() {
	if c.i >= len(c.rounds) || c.state == misproto.NotInMIS {
		c.res.InMIS[c.env.ID] = c.state == misproto.InMIS
		return // no yield: the node halts
	}
	c.Yield(c.sched.PhaseStart(c.rounds[c.i]), c.sendFn, c.recvFn)
}

func (c *stepNode) send(out *sim.Outbox) {
	out.Broadcast(misproto.StateMsg{State: c.state})
}

func (c *stepNode) recv(in []sim.Inbound) {
	if c.i < 0 {
		c.i = 0
		c.attend()
		return
	}
	r := c.rounds[c.i]
	if c.state == misproto.Undecided {
		for _, m := range in {
			if sm, ok := m.Msg.(misproto.StateMsg); ok && sm.State == misproto.InMIS {
				c.state = misproto.NotInMIS
				break
			}
		}
	}
	c.i++
	if r == c.myPhase && c.state == misproto.Undecided {
		// The node's own phase: run its LDT-MIS window, then go on.
		window := new(ldtmis.Session)
		window.Start(&c.Machine, c.env.Rand, c.env.Bandwidth,
			c.sched.PhaseStart(r)+1, c.id, c.sched.NP, c.sched.Variant, &c.state, c.attend)
		return
	}
	c.attend()
}
