// Package graph provides the undirected-graph substrate used throughout
// the repository: a compact adjacency representation with port numbering
// (as required by the anonymous CONGEST model of the paper, §1.3),
// generators for the workload families the experiments sweep over, and
// structural utilities (degrees, connected components, induced
// subgraphs).
package graph

import (
	"fmt"
	"sort"
)

// Graph is an undirected simple graph on vertices 0..N-1 in compressed
// sparse row (CSR) form: one flat neighbor array holding every sorted
// adjacency row back to back, plus per-vertex offsets into it. The
// position of a neighbor in a vertex's row is that vertex's "port" to
// the neighbor, matching the paper's port-numbered anonymous network
// model. The flat layout is what lets runs at n = 10⁷–10⁸ stay
// cache-dense: 4 bytes per directed arc for adjacency and 4 per vertex
// for the offset — at average degree 4 that is 20 bytes per vertex,
// with no per-vertex slice headers or allocator overhead (the seed's
// slice-of-slices layout paid ~46). Offsets are int32, which caps the
// arc count at 2^31-1 (~10⁹ edges, an 8GB neighbor array — beyond any
// run this simulator hosts); construction panics past the cap rather
// than overflowing.
type Graph struct {
	off []int32 // len N+1: row v is nbr[off[v]:off[v+1]]
	nbr []int32 // concatenated sorted adjacency rows (2m entries)
	m   int     // number of edges
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{off: make([]int32, n+1)}
}

// FromEdges builds a graph on n vertices from an edge list. Self-loops
// are rejected; duplicate edges are deduplicated.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d", u)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
	}
	us := make([]int32, len(edges))
	vs := make([]int32, len(edges))
	for i, e := range edges {
		us[i], vs[i] = int32(e[0]), int32(e[1])
	}
	return fromPairs(n, us, vs, true), nil
}

// MustFromEdges is FromEdges but panics on error; for tests and
// generators with statically valid input.
func MustFromEdges(n int, edges [][2]int) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.off) - 1 }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := int32(0)
	for v := 0; v+1 < len(g.off); v++ {
		if d := g.off[v+1] - g.off[v]; d > max {
			max = d
		}
	}
	return int(max)
}

// Neighbors returns the sorted adjacency row of v. The returned slice
// aliases the graph's flat neighbor array and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.nbr[g.off[v]:g.off[v+1]] }

// Neighbor returns the neighbor of v reached through the given port.
func (g *Graph) Neighbor(v, port int) int { return int(g.nbr[int(g.off[v])+port]) }

// Port returns v's port leading to neighbor w, or -1 if {v, w} is not
// an edge.
func (g *Graph) Port(v, w int) int {
	lo, hi := int(g.off[v]), int(g.off[v+1])
	end := hi
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.nbr[mid] < int32(w) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && g.nbr[lo] == int32(w) {
		return lo - int(g.off[v])
	}
	return -1
}

// ReversePort returns, for the edge crossed by v's given port, the port
// by which the neighbor reaches v back. It is derived by searching the
// neighbor's sorted row; callers that need every reverse port build
// the whole table once with ReversePorts instead.
func (g *Graph) ReversePort(v, port int) int { return g.Port(g.Neighbor(v, port), v) }

// ReversePorts returns the reverse-port table, aligned with the arc
// array: rows are stored back to back in vertex order, so the entry
// for v's port p sits at index p plus the sum of the degrees of the
// vertices before v, and holds ReversePort(v, p). The table is built
// in one ascending pass over the rows with a cursor per vertex: when
// v is visited, every smaller neighbor x of a vertex w has already
// advanced w's cursor, so the cursor is v's rank in w's sorted row.
// It costs O(m) time, 4 bytes per arc, and 4 bytes per vertex of
// scratch that is released on return.
func (g *Graph) ReversePorts() []int32 {
	rev := make([]int32, len(g.nbr))
	cur := make([]int32, g.N())
	for i, w := range g.nbr {
		rev[i] = cur[w]
		cur[w]++
	}
	return rev
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool { return g.Port(u, v) >= 0 }

// Edges returns all edges as (u, v) pairs with u < v, in sorted order.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := 0; u+1 < len(g.off); u++ {
		for _, w := range g.nbr[g.off[u]:g.off[u+1]] {
			if int(w) > u {
				out = append(out, [2]int{u, int(w)})
			}
		}
	}
	return out
}

// Components returns the connected components as sorted vertex slices,
// ordered by smallest vertex.
func (g *Graph) Components() [][]int {
	n := g.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int
	stack := make([]int, 0, 64)
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := len(out)
		comp[s] = id
		stack = append(stack[:0], s)
		cur := []int{}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cur = append(cur, v)
			for _, w := range g.Neighbors(v) {
				if comp[w] < 0 {
					comp[w] = id
					stack = append(stack, int(w))
				}
			}
		}
		sort.Ints(cur)
		out = append(out, cur)
	}
	return out
}

// IsConnected reports whether the graph is connected (the empty graph
// and singleton graphs are connected).
func (g *Graph) IsConnected() bool {
	return g.N() <= 1 || len(g.Components()) == 1
}

// Induced returns the subgraph induced by the given vertex set, along
// with the mapping from new indices to original vertices. Vertices are
// renumbered 0..len(vs)-1 in sorted order of the originals.
func (g *Graph) Induced(vs []int) (*Graph, []int) {
	sorted := append([]int(nil), vs...)
	sort.Ints(sorted)
	// Deduplicate.
	uniq := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			uniq = append(uniq, v)
		}
	}
	index := make(map[int]int, len(uniq))
	for i, v := range uniq {
		index[v] = i
	}
	var us, ws []int32
	for i, v := range uniq {
		for _, w := range g.Neighbors(v) {
			if j, ok := index[int(w)]; ok && j > i {
				us = append(us, int32(i))
				ws = append(ws, int32(j))
			}
		}
	}
	sub := fromPairs(len(uniq), us, ws, false)
	mapping := append([]int(nil), uniq...)
	return sub, mapping
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	return &Graph{
		off: append([]int32(nil), g.off...),
		nbr: append([]int32(nil), g.nbr...),
		m:   g.m,
	}
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d}", g.N(), g.M(), g.MaxDegree())
}
