package awakemis

import (
	"fmt"
	"math"
	"strings"

	igraph "awakemis/internal/graph"
)

// GenOptions parameterizes Generate. Zero values take family-specific
// defaults (P = 4/N for gnp, Degree = 4, Radius = 0.1).
type GenOptions struct {
	// N is the number of nodes.
	N int
	// P is the edge probability (gnp).
	P float64
	// Degree is the degree target (regular) or attachments (powerlaw).
	Degree int
	// Radius is the connection radius (geometric).
	Radius float64
	// Seed drives randomized generators.
	Seed int64
}

// Families lists the graph families Generate accepts.
func Families() []string {
	return []string{
		"gnp", "cycle", "path", "complete", "star", "grid",
		"tree", "regular", "geometric", "powerlaw", "hypercube", "torus",
	}
}

// Generate builds a workload graph by family name — the single place
// the CLI tools and experiment scripts construct inputs from. It
// rejects any input whose graph would overflow the int32 node ids or
// the CSR edge cap (see planGraph) instead of building it.
func Generate(family string, o GenOptions) (*Graph, error) {
	build, _, err := planGraph(family, o)
	if err != nil {
		return nil, fmt.Errorf("awakemis: %w", err)
	}
	return build(), nil
}

// planGraph is the family arithmetic Generate and GraphSpec.validate
// share. It fills in o's defaults and works out how many nodes the
// family builds and an upper bound on its edges. It fails when those
// overflow the int32 node ids or the CSR edge cap, which the
// generators would otherwise hit as a panic; else it returns the
// builder and the node count.
func planGraph(family string, o GenOptions) (func() *Graph, int, error) {
	name := strings.ToLower(family)
	n := o.N
	if n <= 0 {
		n = 1024
	}
	if n > math.MaxInt32 {
		return nil, 0, fmt.Errorf("n=%d exceeds the int32 node ids (max %d)", n, math.MaxInt32)
	}
	p := o.P
	if p == 0 {
		p = 4 / float64(n)
	}
	d := o.Degree
	if d == 0 {
		d = 4
	}
	r := o.Radius
	if r == 0 {
		r = 0.1
	}
	side := 1 // grid and torus: the smallest square with ≥ n nodes
	for side*side < n {
		side++
	}
	dim := 0 // hypercube: the smallest one with ≥ n nodes
	for 1<<dim < n {
		dim++
	}

	nf, sf := float64(n), float64(side)
	nodes, pairs := nf, nf*(nf-1)/2
	var edges float64
	var build func() *Graph
	switch name {
	case "gnp":
		edges = likelyEdges(pairs, p)
		build = func() *Graph { return GNP(n, p, o.Seed) }
	case "cycle":
		edges = nf
		build = func() *Graph { return Cycle(n) }
	case "path":
		edges = nf - 1
		build = func() *Graph { return Path(n) }
	case "complete":
		edges = pairs
		build = func() *Graph { return Complete(n) }
	case "star":
		edges = nf - 1
		build = func() *Graph { return Star(n) }
	case "grid":
		nodes, edges = sf*sf, 2*sf*(sf-1)
		build = func() *Graph { return Grid(side, side) }
	case "tree":
		edges = nf - 1
		build = func() *Graph { return RandomTree(n, o.Seed) }
	case "regular":
		if d >= n {
			return nil, 0, fmt.Errorf("regular family needs degree < n, got degree=%d >= n=%d", d, n)
		}
		edges = nf * float64(d) / 2
		build = func() *Graph { return RandomRegular(n, d, o.Seed) }
	case "geometric":
		// πr² overstates the chance that two uniform points lie within
		// r (a disc near the border pokes out of the unit square), which
		// leaves likelyEdges slack for the correlation between edges.
		if r > 0 {
			edges = likelyEdges(pairs, math.Pi*r*r)
		}
		build = func() *Graph { return RandomGeometric(n, r, o.Seed) }
	case "powerlaw":
		// The generator allocates for n·max(d, 1) edges up front.
		edges = nf * float64(max(d, 1))
		build = func() *Graph { return PreferentialAttachment(n, d, o.Seed) }
	case "hypercube":
		nodes = math.Ldexp(1, dim)
		edges = float64(dim) * nodes / 2
		build = func() *Graph { return Hypercube(dim) }
	case "torus":
		nodes, edges = sf*sf, 2*sf*sf
		build = func() *Graph { return Torus(side, side) }
	default:
		return nil, 0, fmt.Errorf("unknown graph family %q (have %s)", family, strings.Join(Families(), "|"))
	}
	if nodes > math.MaxInt32 {
		return nil, 0, fmt.Errorf("family %q at n=%d builds %.0f nodes, beyond the int32 node ids (max %d)",
			name, n, nodes, math.MaxInt32)
	}
	if !(edges <= igraph.MaxEdges) {
		return nil, 0, fmt.Errorf("family %q at n=%d can build %.0f edges, beyond the CSR cap of %d",
			name, n, edges, igraph.MaxEdges)
	}
	return build, int(nodes), nil
}

// likelyEdges bounds the edge count of a random graph that joins each
// of pairs node pairs with probability q: the expected count plus
// eight standard deviations, at most pairs. By the Chernoff bound a
// draw past it has probability below 10⁻¹³ wherever the edge cap
// binds.
func likelyEdges(pairs, q float64) float64 {
	if q >= 1 {
		return pairs
	}
	mean := pairs * max(q, 0)
	return min(pairs, mean+8*math.Sqrt(mean))
}
