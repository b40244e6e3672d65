// Package luby implements Luby's classical randomized MIS algorithm
// [Luby 1986; Alon–Babai–Itai 1986] as a SLEEPING-CONGEST program. It
// is the paper's main baseline: O(log n) rounds and — because a node
// must stay awake every round until it is decided — O(log n) awake
// complexity, the bound Awake-MIS improves exponentially.
package luby

import (
	"awakemis/internal/bitio"
	"awakemis/internal/graph"
	"awakemis/internal/sim"
	"context"
)

// valueMsg carries a node's random value for one Luby iteration.
type valueMsg struct {
	Value int64
}

// Bits sizes the value field for the N^4 value space.
func (m valueMsg) Bits() int { return bitio.IntBits(m.Value) }

// joinMsg announces that the sender joined the MIS.
type joinMsg struct{}

// Bits returns the one-bit wire size.
func (m joinMsg) Bits() int { return 1 }

var (
	_ sim.Message = valueMsg{}
	_ sim.Message = joinMsg{}
)

// Result collects the algorithm's output.
type Result struct {
	InMIS []bool
}

// valueSpace returns the tie-avoiding value space [0, N⁴) (clamped up
// to 2¹⁶ for tiny N).
func valueSpace(n int) int64 {
	n4 := int64(n)
	n4 = n4 * n4 * n4 * n4
	if n4 < 1<<16 {
		n4 = 1 << 16
	}
	return n4
}

// stepNode is one node of Luby's algorithm. Each iteration costs two
// rounds, a value-exchange round and a join-announcement round, which
// are two OnWake calls. The join-round broadcast is staged while
// processing the value round's inbox (it depends only on whether this
// node was the local minimum), and the next iteration's value is drawn
// while processing the join round. Ties are broken conservatively
// (neither endpoint is a local minimum), which preserves independence;
// with values drawn from [0, N⁴) ties are rare. A node halts once it
// joins or hears a neighbor join: its silence tells its neighbors it
// is no longer active.
type stepNode struct {
	res   *Result
	node  int
	env   *sim.NodeEnv
	n4    int64
	val   int64
	isMin bool
	join  bool // next OnWake is a join round
}

// StepProgram returns the per-node program, writing into res
// (res.InMIS must have length n).
func StepProgram(res *Result) sim.StepProgram {
	return func(env *sim.NodeEnv) sim.StepNode {
		return &stepNode{res: res, node: env.ID, env: env, n4: valueSpace(env.N)}
	}
}

func (n *stepNode) Start(out *sim.Outbox) {
	n.val = n.env.Rand.Int63n(n.n4)
	out.Broadcast(valueMsg{Value: n.val})
}

func (n *stepNode) OnWake(round int64, inbox []sim.Inbound, out *sim.Outbox) (int64, bool) {
	if !n.join {
		// Value round: am I the local minimum among undecided neighbors?
		n.isMin = true
		for _, m := range inbox {
			if vm, ok := m.Msg.(valueMsg); ok && vm.Value <= n.val {
				n.isMin = false
				break
			}
		}
		n.join = true
		if n.isMin {
			n.res.InMIS[n.node] = true
			out.Broadcast(joinMsg{})
		}
		return round + 1, false
	}
	// Join round: winners halt after announcing; losers halt on hearing
	// a neighbor join, else start another iteration.
	if n.isMin {
		return 0, true
	}
	for _, m := range inbox {
		if _, ok := m.Msg.(joinMsg); ok {
			return 0, true
		}
	}
	n.join = false
	n.val = n.env.Rand.Int63n(n.n4)
	out.Broadcast(valueMsg{Value: n.val})
	return round + 1, false
}

// RunContext executes Luby's algorithm on g and returns the MIS
// selection and metrics. Cancelling ctx aborts the simulation at the
// next round boundary.
func RunContext(ctx context.Context, g *graph.Graph, cfg sim.Config) (*Result, *sim.Metrics, error) {
	res := &Result{InMIS: make([]bool, g.N())}
	m, err := sim.RunStepContext(ctx, g, StepProgram(res), cfg)
	return res, m, err
}
