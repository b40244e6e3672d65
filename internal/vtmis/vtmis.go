// Package vtmis implements Algorithm VT-MIS (§5.3, Lemma 10): the
// awake-efficient distributed implementation of sequential greedy MIS.
// Given unique IDs in [1, I], the algorithm spans I rounds; a node with
// ID k is awake only in the rounds of its virtual-binary-tree
// communication set S_k([1, I]) ∪ {k} — O(log I) rounds — yet computes
// the lexicographically first MIS with respect to the ID order, because
// Observation 5 guarantees every ordered pair of neighbors shares an
// awake round between their two IDs.
package vtmis

import (
	"context"
	"fmt"

	"awakemis/internal/graph"
	"awakemis/internal/misproto"
	"awakemis/internal/sim"
	"awakemis/internal/vtree"
)

// Sub executes VT-MIS as a sub-procedure over algorithm rounds
// r ∈ [1, idBound] mapped to simulator rounds base+r-1, for callers
// that compose VT-MIS into a sim.Machine-driven StepNode (LDT-MIS's
// final window). It runs from one frame: every Yield passes the same
// send and receive methods, bound once in Start.
//
// id is the node's unique ID in [1, idBound]; state is read and
// updated in place; ports lists the ports on which participating
// neighbors are reachable (every participant must use a port list that
// includes all participating neighbors).
type Sub struct {
	m       *sim.Machine
	base    int64
	id      int
	idBound int
	state   *misproto.State
	ports   []int
	round   int  // the attended round of vtree.AwakeRounds(id, idBound); 0 past the last
	parked  bool // waiting at base without attending (see Start)
	k       func()
	sendFn  func(*sim.Outbox)
	recvFn  func([]sim.Inbound)
}

// Start runs VT-MIS from base. Call it at the end of an awake round
// strictly before base; k runs inside the final awake round's receive.
// Start always yields.
func (s *Sub) Start(m *sim.Machine, base int64, id, idBound int, state *misproto.State, ports []int, k func()) {
	*s = Sub{m: m, base: base, id: id, idBound: idBound, state: state, ports: ports, round: vtree.NextAwakeRound(id, idBound, 0), k: k}
	s.sendFn, s.recvFn = s.send, s.recv
	if !s.attend() {
		// The node never woke (possible only for an already-decided
		// NotInMIS node); park it at base so the caller's exit
		// contract ("in an awake round") holds.
		s.parked = true
		m.Yield(base, nil, s.recvFn)
	}
}

// attend stages the current round, or reports false when nothing is
// left to learn or announce.
func (s *Sub) attend() bool {
	if s.round == 0 || *s.state == misproto.NotInMIS {
		return false
	}
	s.m.Yield(s.base+int64(s.round)-1, s.sendFn, s.recvFn)
	return true
}

func (s *Sub) send(out *sim.Outbox) {
	for _, p := range s.ports {
		out.Send(p, misproto.StateMsg{State: *s.state})
	}
}

func (s *Sub) recv(in []sim.Inbound) {
	if s.parked {
		s.k()
		return
	}
	r := s.round
	if *s.state == misproto.Undecided {
		for _, msg := range in {
			if sm, ok := msg.Msg.(misproto.StateMsg); ok && sm.State == misproto.InMIS {
				*s.state = misproto.NotInMIS
				break
			}
		}
	}
	if r == s.id && *s.state == misproto.Undecided {
		*s.state = misproto.InMIS
	}
	s.round = vtree.NextAwakeRound(s.id, s.idBound, r)
	if !s.attend() {
		s.k()
	}
}

// Result collects the standalone algorithm's output.
type Result struct {
	InMIS []bool
}

// stepNode is the standalone per-node program: all nodes participate
// on all ports, in rounds 1..idBound after the model's initial
// all-awake round 0. The node attends exactly the rounds of its
// communication set S_id([1,I]) ∪ {id}, and each attended round's
// broadcast is staged at the previous one (the state it announces can
// only have changed during attended rounds).
type stepNode struct {
	res     *Result
	node    int
	id      int
	idBound int
	state   misproto.State
	round   int // the next round of vtree.AwakeRounds(id, idBound); sim round r-1+base, base=1
}

// StepProgram returns the standalone per-node program.
func StepProgram(res *Result, ids []int, idBound int) sim.StepProgram {
	return func(env *sim.NodeEnv) sim.StepNode {
		id := ids[env.ID]
		return &stepNode{
			res:     res,
			node:    env.ID,
			id:      id,
			idBound: idBound,
			round:   vtree.NextAwakeRound(id, idBound, 0),
		}
	}
}

func (n *stepNode) Start(out *sim.Outbox) {
	// Round 0 (the model's initial all-awake round) sends nothing; the
	// first communication-set round is staged from OnWake(0).
}

func (n *stepNode) OnWake(round int64, inbox []sim.Inbound, out *sim.Outbox) (int64, bool) {
	if round > 0 {
		// An attended communication round.
		r := n.round
		if n.state == misproto.Undecided {
			for _, m := range inbox {
				if sm, ok := m.Msg.(misproto.StateMsg); ok && sm.State == misproto.InMIS {
					n.state = misproto.NotInMIS
					break
				}
			}
		}
		if r == n.id && n.state == misproto.Undecided {
			n.state = misproto.InMIS
		}
		n.round = vtree.NextAwakeRound(n.id, n.idBound, r)
		if n.state == misproto.NotInMIS || n.round == 0 {
			n.res.InMIS[n.node] = n.state == misproto.InMIS
			return 0, true
		}
	}
	out.Broadcast(misproto.StateMsg{State: n.state})
	return int64(n.round), false // base 1: round r is sim round r
}

// RunContext executes standalone VT-MIS on g with the given unique IDs
// in [1, idBound]. All nodes participate on all ports. Round 0 is the
// model's initial all-awake round; the algorithm occupies rounds
// 1..idBound. Cancelling ctx aborts the simulation at the next round
// boundary.
func RunContext(ctx context.Context, g *graph.Graph, ids []int, idBound int, cfg sim.Config) (*Result, *sim.Metrics, error) {
	if err := CheckIDs(g.N(), ids, idBound); err != nil {
		return nil, nil, err
	}
	res := &Result{InMIS: make([]bool, g.N())}
	m, err := sim.RunStepContext(ctx, g, StepProgram(res, ids, idBound), cfg)
	return res, m, err
}

// CheckIDs validates that ids are unique and within [1, idBound].
func CheckIDs(n int, ids []int, idBound int) error {
	if len(ids) != n {
		return fmt.Errorf("vtmis: %d ids for %d nodes", len(ids), n)
	}
	seen := make(map[int]bool, n)
	for v, id := range ids {
		if id < 1 || id > idBound {
			return fmt.Errorf("vtmis: node %d id %d outside [1,%d]", v, id, idBound)
		}
		if seen[id] {
			return fmt.Errorf("vtmis: duplicate id %d", id)
		}
		seen[id] = true
	}
	return nil
}
