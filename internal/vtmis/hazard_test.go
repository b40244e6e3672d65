package vtmis

import (
	"testing"

	"awakemis/internal/graph"
	"awakemis/internal/misproto"
	"awakemis/internal/sim"
	"awakemis/internal/verify"
)

// TestBrokenScheduleFailsWithoutCommSets is the negative control for
// the whole sleeping model: a "VT-MIS" that drops the communication
// sets — each node wakes only in its own round — never has two
// neighbors awake simultaneously, so every state message is lost to a
// sleeping receiver, every node believes it is first, and the output
// violates independence. This proves the simulator actually enforces
// the model hazard the virtual-tree technique exists to solve (and that
// the verify oracle catches the failure).
func TestBrokenScheduleFailsWithoutCommSets(t *testing.T) {
	g := graph.Path(6)
	ids := []int{1, 2, 3, 4, 5, 6}
	in := make([]bool, g.N())
	prog := func(env *sim.NodeEnv) sim.StepNode {
		return &ownRoundNode{id: ids[env.ID], in: &in[env.ID]}
	}
	m, err := sim.RunStep(g, prog, sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// All messages must have been lost: no round ever had two awake
	// neighbors (round 0 has node 0 awake... all nodes are awake at
	// round 0 by the model, so adjacent pairs DO share round 0 — but
	// nodes with id > 1 send nothing there and have not decided).
	if err := verify.CheckMIS(g, in); err == nil {
		t.Fatal("broken schedule produced a valid MIS; the sleeping hazard is not being enforced")
	}
	if m.MessagesDelivered >= m.MessagesSent {
		t.Errorf("expected message loss, got %d/%d delivered",
			m.MessagesDelivered, m.MessagesSent)
	}
	// The correct algorithm on the same instance succeeds.
	res, _, err := Run(g, ids, 6, sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckMIS(g, res.InMIS); err != nil {
		t.Fatalf("correct VT-MIS failed on the control instance: %v", err)
	}
}

// ownRoundNode is the broken schedule: it wakes only in its own round
// id-1 (round 0 for ID 1), announces its state there and decides.
type ownRoundNode struct {
	id int
	in *bool
}

func (n *ownRoundNode) Start(out *sim.Outbox) {
	if n.id == 1 {
		out.Broadcast(misproto.StateMsg{State: misproto.Undecided})
	}
}

func (n *ownRoundNode) OnWake(round int64, inbox []sim.Inbound, out *sim.Outbox) (int64, bool) {
	if round < int64(n.id-1) {
		out.Broadcast(misproto.StateMsg{State: misproto.Undecided})
		return int64(n.id - 1), false
	}
	*n.in = true
	for _, m := range inbox {
		if sm, ok := m.Msg.(misproto.StateMsg); ok && sm.State == misproto.InMIS {
			*n.in = false
		}
	}
	return 0, true
}

// TestSubProcedureComposition exercises Sub's entry/exit contract
// directly: two consecutive VT-MIS instances on disjoint windows, the
// second on the residual graph semantics (decided nodes keep silent) —
// the composability property of §3 in distributed form.
func TestSubProcedureComposition(t *testing.T) {
	g := graph.Cycle(12)
	ids := make([]int, 12)
	for v := range ids {
		ids[v] = v + 1
	}
	in := make([]bool, g.N())
	prog := func(env *sim.NodeEnv) sim.StepNode {
		return &twoWindows{t: t, env: env, id: ids[env.ID], in: in}
	}
	if _, err := sim.RunStep(g, prog, sim.Config{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckMIS(g, in); err != nil {
		t.Fatal(err)
	}
}

// twoWindows runs VT-MIS over rounds 1..12 and again over rounds
// 101..112. A second pass must leave every decision unchanged.
type twoWindows struct {
	sim.Machine
	t            *testing.T
	env          *sim.NodeEnv
	id           int
	in           []bool
	state, first misproto.State
	ports        []int
	sub, again   Sub
}

func (n *twoWindows) Start(out *sim.Outbox) {
	n.ports = make([]int, n.env.Degree)
	for i := range n.ports {
		n.ports[i] = i
	}
	n.Begin(out, func() {
		n.Yield(0, nil, func([]sim.Inbound) {
			n.sub.Start(&n.Machine, 1, n.id, 12, &n.state, n.ports, n.second)
		})
	})
}

func (n *twoWindows) second() {
	n.first = n.state
	n.again.Start(&n.Machine, 101, n.id, 12, &n.state, n.ports, n.finish)
}

func (n *twoWindows) finish() {
	if n.state == misproto.Undecided {
		n.t.Errorf("node %d undecided after two windows", n.env.ID)
	}
	if n.first == misproto.InMIS && n.state != misproto.InMIS {
		n.t.Errorf("node %d left the MIS across windows", n.env.ID)
	}
	n.in[n.env.ID] = n.state == misproto.InMIS
}
