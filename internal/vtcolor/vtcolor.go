// Package vtcolor implements greedy (Δ+1)-coloring in the sleeping
// model with O(log I) awake complexity — the paper's §7 asks for
// exactly such extensions of its techniques to other symmetry-breaking
// problems, and the virtual-binary-tree machinery of §5.1 delivers one
// directly.
//
// The sequential greedy coloring processes nodes in ID order; each node
// takes the smallest color unused by its already-colored neighbors. As
// in VT-MIS, a node with ID k is awake only in rounds S_k([1,I]) ∪ {k}:
// by Observation 5, every pair of neighbors u < v shares an awake round
// r with u < r ≤ v, so v hears u's (final) color before or at its own
// round. The result is the lexicographically-first greedy coloring with
// respect to the ID order, using at most Δ+1 colors.
package vtcolor

import (
	"context"
	"fmt"

	"awakemis/internal/bitio"
	"awakemis/internal/graph"
	"awakemis/internal/sim"
	"awakemis/internal/vtree"
)

// colorMsg announces the sender's chosen color (-1 while undecided).
type colorMsg struct {
	Color int32
}

// Bits implements sim.Message.
func (m colorMsg) Bits() int { return bitio.IntBits(int64(m.Color)) }

var _ sim.Message = colorMsg{}

// Result holds the coloring.
type Result struct {
	// Color[v] is node v's color in [0, Δ].
	Color []int
}

// stepNode is the standalone per-node program: the node attends the
// rounds of its communication set, collecting neighbor colors until its
// own round, where it takes the smallest free color; every attended
// round's broadcast carries its current color (-1 while undecided).
type stepNode struct {
	res    *Result
	node   int
	id     int
	color  int32
	taken  map[int32]bool
	rounds []int
	idx    int
}

// StepProgram returns the standalone per-node program.
func StepProgram(res *Result, ids []int, idBound int) sim.StepProgram {
	return func(env *sim.NodeEnv) sim.StepNode {
		return &stepNode{
			res:    res,
			node:   env.ID,
			id:     ids[env.ID],
			color:  -1,
			taken:  map[int32]bool{},
			rounds: vtree.AwakeRounds(ids[env.ID], idBound),
		}
	}
}

func (n *stepNode) Start(out *sim.Outbox) {
	// Round 0 sends nothing; the first communication-set round is staged
	// from OnWake(0).
}

func (n *stepNode) OnWake(round int64, inbox []sim.Inbound, out *sim.Outbox) (int64, bool) {
	if round > 0 {
		r := n.rounds[n.idx]
		if n.color < 0 {
			for _, m := range inbox {
				if cm, ok := m.Msg.(colorMsg); ok && cm.Color >= 0 {
					n.taken[cm.Color] = true
				}
			}
		}
		if r == n.id && n.color < 0 {
			for c := int32(0); ; c++ {
				if !n.taken[c] {
					n.color = c
					break
				}
			}
		}
		n.idx++
		if n.idx == len(n.rounds) {
			n.res.Color[n.node] = int(n.color)
			return 0, true
		}
	}
	out.Broadcast(colorMsg{Color: n.color})
	return int64(n.rounds[n.idx]), false // base 1: round r is sim round r
}

// RunContext executes the standalone coloring on g with unique IDs in
// [1, idBound]; the algorithm occupies rounds 1..idBound after the
// model's initial all-awake round 0. Cancelling ctx aborts the
// simulation at the next round boundary.
func RunContext(ctx context.Context, g *graph.Graph, ids []int, idBound int, cfg sim.Config) (*Result, *sim.Metrics, error) {
	if err := checkIDs(g.N(), ids, idBound); err != nil {
		return nil, nil, err
	}
	res := &Result{Color: make([]int, g.N())}
	m, err := sim.RunStepContext(ctx, g, StepProgram(res, ids, idBound), cfg)
	return res, m, err
}

// Greedy computes the sequential greedy coloring reference for the
// given processing order.
func Greedy(g *graph.Graph, order []int) []int {
	color := make([]int, g.N())
	for i := range color {
		color[i] = -1
	}
	for _, v := range order {
		taken := map[int]bool{}
		for _, w := range g.Neighbors(v) {
			if color[w] >= 0 {
				taken[color[w]] = true
			}
		}
		for c := 0; ; c++ {
			if !taken[c] {
				color[v] = c
				break
			}
		}
	}
	return color
}

func checkIDs(n int, ids []int, idBound int) error {
	if len(ids) != n {
		return fmt.Errorf("vtcolor: %d ids for %d nodes", len(ids), n)
	}
	seen := make(map[int]bool, n)
	for v, id := range ids {
		if id < 1 || id > idBound {
			return fmt.Errorf("vtcolor: node %d id %d outside [1,%d]", v, id, idBound)
		}
		if seen[id] {
			return fmt.Errorf("vtcolor: duplicate id %d", id)
		}
		seen[id] = true
	}
	return nil
}
