package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file pins the CSR builders to the representation they replaced.
// The ref* functions are verbatim ports of the seed's slice-of-slices
// generators (append-per-node adjacency, map[[2]int]bool dedup,
// sort.Slice normalize), consuming their RNG in the identical order.
// Every generator family must produce the exact same edge set — and,
// because ports are positions in sorted rows, the exact same port
// numbering — under the CSR layout. PreferentialAttachment is the one
// deliberate exception: the seed sampled its attachment set from a map
// (iteration-order nondeterministic), so it is checked structurally.

// refAdj is the seed's adjacency representation.
type refAdj struct {
	adj [][]int32
	m   int
}

func newRefAdj(n int) *refAdj { return &refAdj{adj: make([][]int32, n)} }

func (r *refAdj) add(u, v int) {
	r.adj[u] = append(r.adj[u], int32(v))
	r.adj[v] = append(r.adj[v], int32(u))
	r.m++
}

func (r *refAdj) normalize() {
	for _, nb := range r.adj {
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
}

// refFromEdges is the seed FromEdges: insertion-ordered map dedup.
func refFromEdges(n int, edges [][2]int) *refAdj {
	r := newRefAdj(n)
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		r.add(u, v)
	}
	r.normalize()
	return r
}

func refGNP(n int, p float64, rng *rand.Rand) *refAdj {
	r := newRefAdj(n)
	if p <= 0 || n < 2 {
		return r
	}
	if p >= 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				r.add(u, v)
			}
		}
		return r
	}
	logq := math.Log1p(-p)
	v, w := 1, -1
	for v < n {
		rr := rng.Float64()
		skip := math.Floor(math.Log1p(-rr) / logq)
		if skip > float64(n)*float64(n) {
			break
		}
		w += 1 + int(skip)
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			r.add(v, w)
		}
	}
	r.normalize()
	return r
}

func refRandomTree(n int, rng *rand.Rand) *refAdj {
	if n <= 1 {
		return newRefAdj(n)
	}
	if n == 2 {
		return refFromEdges(2, [][2]int{{0, 1}})
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range prufer {
		degree[v]++
	}
	edges := make([][2]int, 0, n-1)
	leaves := &intHeap{}
	for v := 0; v < n; v++ {
		if degree[v] == 1 {
			leaves.push(v)
		}
	}
	for _, v := range prufer {
		leaf := leaves.pop()
		edges = append(edges, [2]int{leaf, v})
		degree[v]--
		if degree[v] == 1 {
			leaves.push(v)
		}
	}
	a := leaves.pop()
	b := leaves.pop()
	edges = append(edges, [2]int{a, b})
	return refFromEdges(n, edges)
}

func refRandomRegular(n, d int, rng *rand.Rand) *refAdj {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	seen := make(map[[2]int]bool)
	edges := make([][2]int, 0, n*d/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, [2]int{u, v})
	}
	return refFromEdges(n, edges)
}

func refRandomGeometric(n int, r float64, rng *rand.Rand) *refAdj {
	type pt struct{ x, y float64 }
	pts := make([]pt, n)
	for i := range pts {
		pts[i] = pt{rng.Float64(), rng.Float64()}
	}
	cell := r
	if cell <= 0 {
		return newRefAdj(n)
	}
	type key struct{ cx, cy int }
	buckets := make(map[key][]int)
	for i, p := range pts {
		k := key{int(p.x / cell), int(p.y / cell)}
		buckets[k] = append(buckets[k], i)
	}
	edges := [][2]int{}
	r2 := r * r
	for i, p := range pts {
		cx, cy := int(p.x/cell), int(p.y/cell)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range buckets[key{cx + dx, cy + dy}] {
					if j <= i {
						continue
					}
					q := pts[j]
					ddx, ddy := p.x-q.x, p.y-q.y
					if ddx*ddx+ddy*ddy <= r2 {
						edges = append(edges, [2]int{i, j})
					}
				}
			}
		}
	}
	return refFromEdges(n, edges)
}

func refTorus(rows, cols int) *refAdj {
	n := rows * cols
	id := func(r, c int) int { return ((r+rows)%rows)*cols + (c+cols)%cols }
	seen := map[[2]int]bool{}
	var edges [][2]int
	add := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		if !seen[[2]int{a, b}] {
			seen[[2]int{a, b}] = true
			edges = append(edges, [2]int{a, b})
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			add(id(r, c), id(r, c+1))
			add(id(r, c), id(r+1, c))
		}
	}
	return refFromEdges(n, edges)
}

// assertSameLayout checks that g matches the seed-layout reference
// vertex by vertex: identical sorted rows mean identical port numbering
// everywhere, which is what the determinism contract of the simulator
// rides on.
func assertSameLayout(t *testing.T, g *Graph, ref *refAdj) {
	t.Helper()
	if g.N() != len(ref.adj) {
		t.Fatalf("N = %d, reference %d", g.N(), len(ref.adj))
	}
	if g.M() != ref.m {
		t.Fatalf("M = %d, reference %d", g.M(), ref.m)
	}
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(v)
		rb := ref.adj[v]
		if len(nb) != len(rb) {
			t.Fatalf("vertex %d: degree %d, reference %d", v, len(nb), len(rb))
		}
		for p := range nb {
			if nb[p] != rb[p] {
				t.Fatalf("vertex %d port %d: neighbor %d, reference %d", v, p, nb[p], rb[p])
			}
		}
	}
}

func TestCSREquivalenceDeterministic(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		ref  *refAdj
	}{
		{"cycle1", Cycle(1), refFromEdges(1, nil)},
		{"cycle2", Cycle(2), refFromEdges(2, [][2]int{{0, 1}})},
		{"cycle9", Cycle(9), func() *refAdj {
			var e [][2]int
			for i := 0; i+1 < 9; i++ {
				e = append(e, [2]int{i, i + 1})
			}
			return refFromEdges(9, append(e, [2]int{0, 8}))
		}()},
		{"path7", Path(7), func() *refAdj {
			var e [][2]int
			for i := 0; i+1 < 7; i++ {
				e = append(e, [2]int{i, i + 1})
			}
			return refFromEdges(7, e)
		}()},
		{"complete8", Complete(8), func() *refAdj {
			var e [][2]int
			for u := 0; u < 8; u++ {
				for v := u + 1; v < 8; v++ {
					e = append(e, [2]int{u, v})
				}
			}
			return refFromEdges(8, e)
		}()},
		{"star6", Star(6), func() *refAdj {
			var e [][2]int
			for v := 1; v < 6; v++ {
				e = append(e, [2]int{0, v})
			}
			return refFromEdges(6, e)
		}()},
		{"grid4x5", Grid(4, 5), func() *refAdj {
			id := func(r, c int) int { return r*5 + c }
			var e [][2]int
			for r := 0; r < 4; r++ {
				for c := 0; c < 5; c++ {
					if c+1 < 5 {
						e = append(e, [2]int{id(r, c), id(r, c+1)})
					}
					if r+1 < 4 {
						e = append(e, [2]int{id(r, c), id(r+1, c)})
					}
				}
			}
			return refFromEdges(20, e)
		}()},
		{"btree10", BinaryTree(10), func() *refAdj {
			var e [][2]int
			for v := 0; v < 10; v++ {
				for _, c := range []int{2*v + 1, 2*v + 2} {
					if c < 10 {
						e = append(e, [2]int{v, c})
					}
				}
			}
			return refFromEdges(10, e)
		}()},
		{"caterpillar4x6", Caterpillar(4, 6), func() *refAdj {
			var e [][2]int
			for i := 0; i+1 < 4; i++ {
				e = append(e, [2]int{i, i + 1})
			}
			for l := 0; l < 6; l++ {
				e = append(e, [2]int{l % 4, 4 + l})
			}
			return refFromEdges(10, e)
		}()},
		{"hypercube4", Hypercube(4), func() *refAdj {
			var e [][2]int
			for v := 0; v < 16; v++ {
				for b := 0; b < 4; b++ {
					if w := v ^ (1 << uint(b)); w > v {
						e = append(e, [2]int{v, w})
					}
				}
			}
			return refFromEdges(16, e)
		}()},
		{"bipartite3x4", CompleteBipartite(3, 4), func() *refAdj {
			var e [][2]int
			for u := 0; u < 3; u++ {
				for v := 0; v < 4; v++ {
					e = append(e, [2]int{u, 3 + v})
				}
			}
			return refFromEdges(7, e)
		}()},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) { assertSameLayout(t, tt.g, tt.ref) })
	}
}

// TestCSREquivalenceTorus sweeps the degenerate dimensions where the
// seed relied on its map dedup (sizes 1 and 2 fold wraparound edges
// onto grid edges or self-loops).
func TestCSREquivalenceTorus(t *testing.T) {
	for rows := 1; rows <= 5; rows++ {
		for cols := 1; cols <= 5; cols++ {
			t.Run(fmt.Sprintf("%dx%d", rows, cols), func(t *testing.T) {
				assertSameLayout(t, Torus(rows, cols), refTorus(rows, cols))
			})
		}
	}
}

// TestCSREquivalenceRandom pins the RNG families: the new builders must
// draw from the stream in the seed's exact order so that recorded runs
// (and the golden report) replay bit-identically.
func TestCSREquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			n := 50 + int(seed)*37
			gnp := GNP(n, 0.08, rand.New(rand.NewSource(seed)))
			assertSameLayout(t, gnp, refGNP(n, 0.08, rand.New(rand.NewSource(seed))))

			tree := RandomTree(n, rand.New(rand.NewSource(seed)))
			assertSameLayout(t, tree, refRandomTree(n, rand.New(rand.NewSource(seed))))

			reg := RandomRegular(n, 4, rand.New(rand.NewSource(seed)))
			assertSameLayout(t, reg, refRandomRegular(n, 4, rand.New(rand.NewSource(seed))))

			geo := RandomGeometric(n, 0.12, rand.New(rand.NewSource(seed)))
			assertSameLayout(t, geo, refRandomGeometric(n, 0.12, rand.New(rand.NewSource(seed))))
		})
	}
	// GNP extremes take the non-sampling paths.
	assertSameLayout(t, GNP(30, 0, rand.New(rand.NewSource(1))), refGNP(30, 0, rand.New(rand.NewSource(1))))
	assertSameLayout(t, GNP(30, 1, rand.New(rand.NewSource(1))), refGNP(30, 1, rand.New(rand.NewSource(1))))
	// Tiny radii exercise the dense cell grid's clamped cell size.
	assertSameLayout(t,
		RandomGeometric(2000, 0.004, rand.New(rand.NewSource(9))),
		refRandomGeometric(2000, 0.004, rand.New(rand.NewSource(9))))
}

// TestCSREquivalenceFromEdges checks the dedup path against the seed's
// map-based one on adversarial duplicate patterns.
func TestCSREquivalenceFromEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 40
	var edges [][2]int
	for i := 0; i < 600; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if rng.Intn(2) == 0 {
			u, v = v, u // both orientations of the same edge must collapse
		}
		edges = append(edges, [2]int{u, v})
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLayout(t, g, refFromEdges(n, edges))
}

// TestCSREquivalenceUnionInduced covers the derived builders.
func TestCSREquivalenceUnionInduced(t *testing.T) {
	g := DisjointUnion(Cycle(5), Complete(4), Path(3))
	ref := func() *refAdj {
		var e [][2]int
		for _, p := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}} {
			e = append(e, p)
		}
		for u := 0; u < 4; u++ {
			for v := u + 1; v < 4; v++ {
				e = append(e, [2]int{5 + u, 5 + v})
			}
		}
		e = append(e, [2]int{9, 10}, [2]int{10, 11})
		return refFromEdges(12, e)
	}()
	assertSameLayout(t, g, ref)

	sub, _ := g.Induced([]int{5, 6, 7, 0, 1})
	// Induced relabels in sorted vertex order: 0→0, 1→1, 5→2, 6→3, 7→4.
	assertSameLayout(t, sub, refFromEdges(5, [][2]int{{0, 1}, {2, 3}, {2, 4}, {3, 4}}))
}

// TestPreferentialAttachmentStructure checks the PA family structurally:
// the seed's sampler iterated a Go map, so its edge set was never
// deterministic to begin with — the CSR port is pinned by the invariant
// tests plus these shape properties instead.
func TestPreferentialAttachmentStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, k := 300, 3
	g := PreferentialAttachment(n, k, rng)
	if g.N() != n {
		t.Fatalf("N = %d", g.N())
	}
	if !g.IsConnected() {
		t.Error("PA graph must be connected")
	}
	if g.M() > n*k {
		t.Errorf("M = %d exceeds n*k = %d", g.M(), n*k)
	}
	if g.M() < n-1 {
		t.Errorf("M = %d below tree bound %d", g.M(), n-1)
	}
	// Degree-proportional attachment concentrates on early vertices.
	if g.Degree(0) <= k {
		t.Errorf("vertex 0 degree %d suspiciously low for a %d-vertex PA graph", g.Degree(0), n)
	}
	// Determinism of the new builder (the seed lacked this property).
	h := PreferentialAttachment(n, k, rand.New(rand.NewSource(5)))
	g2 := PreferentialAttachment(n, k, rand.New(rand.NewSource(5)))
	assertSameGraph(t, h, g2)
}

func assertSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("graphs differ in size: (%d,%d) vs (%d,%d)", a.N(), a.M(), b.N(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("vertex %d: degrees differ", v)
		}
		for p := range na {
			if na[p] != nb[p] {
				t.Fatalf("vertex %d port %d: %d vs %d", v, p, na[p], nb[p])
			}
		}
	}
}

// TestReversePortConsistency checks reverse ports against Port on every
// family the simulator routes through: for every arc, following
// ReversePort from the far side must land back on the originating
// port, and the ReversePorts table must hold ReversePort at the arc's
// index.
func TestReversePortConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	graphs := map[string]*Graph{
		"gnp":       GNP(200, 0.05, rng),
		"tree":      RandomTree(150, rng),
		"regular":   RandomRegular(120, 5, rng),
		"geometric": RandomGeometric(150, 0.15, rng),
		"pa":        PreferentialAttachment(150, 2, rng),
		"torus":     Torus(7, 9),
		"hypercube": Hypercube(5),
		"barbell":   Barbell(6, 3),
		"lollipop":  Lollipop(5, 4),
		"union":     DisjointUnion(Cycle(4), Star(5)),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			rev := g.ReversePorts()
			for v := 0; v < g.N(); v++ {
				for p := 0; p < g.Degree(v); p++ {
					w := g.Neighbor(v, p)
					rp := g.ReversePort(v, p)
					if got := int(rev[int(g.off[v])+p]); got != rp {
						t.Fatalf("ReversePorts()[arc (%d,%d)] = %d, ReversePort = %d", v, p, got, rp)
					}
					if got := g.Neighbor(w, rp); got != v {
						t.Fatalf("Neighbor(%d, ReversePort(%d,%d)=%d) = %d, want %d", w, v, p, rp, got, v)
					}
					if pp := g.Port(w, v); pp != rp {
						t.Fatalf("ReversePort(%d,%d) = %d, Port(%d,%d) = %d", v, p, rp, w, v, pp)
					}
					if pp := g.Port(v, w); pp != p {
						t.Fatalf("Port(%d,%d) = %d, want %d", v, w, pp, p)
					}
				}
				if g.Port(v, v) >= 0 {
					t.Fatalf("Port(%d,%d) should be -1", v, v)
				}
			}
		})
	}
}
