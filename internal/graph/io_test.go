package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []*Graph{
		Cycle(12),
		GNP(50, 0.1, rng),
		New(5), // isolated vertices survive via the header
		Hypercube(4),
	} {
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("round trip: got n=%d m=%d, want n=%d m=%d",
				back.N(), back.M(), g.N(), g.M())
		}
		for u := 0; u < g.N(); u++ {
			nb, nb2 := g.Neighbors(u), back.Neighbors(u)
			if len(nb) != len(nb2) {
				t.Fatalf("vertex %d adjacency mismatch", u)
			}
			for i := range nb {
				if nb[i] != nb2[i] {
					t.Fatalf("vertex %d adjacency mismatch", u)
				}
			}
		}
	}
}

func TestReadEdgeListNoHeader(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("got n=%d m=%d", g.N(), g.M())
	}
}

func TestReadEdgeListCommentsAndBlank(t *testing.T) {
	in := "% comment\n\n// another\n# 4 2\n0 1\n\n2 3\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 2 {
		t.Errorf("got n=%d m=%d", g.N(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0 x\n")); err == nil {
		t.Error("garbage line accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("# 2 1\n0 5\n")); err == nil {
		t.Error("vertex beyond header accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("1 1\n")); err == nil {
		t.Error("self-loop accepted")
	}
	// A negative index must not wrap through int32 into a valid one
	// (-4294967295 wraps to 1).
	if _, err := ReadEdgeList(strings.NewReader("-4294967295 3\n")); err == nil {
		t.Error("negative vertex index accepted")
	}
	// A header n beyond int32 must fail before the CSR arrays are sized.
	if _, err := ReadEdgeList(strings.NewReader("# 3000000000 0\n")); err == nil {
		t.Error("header n beyond int32 accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("# -5 0\n")); err == nil {
		t.Error("negative header n accepted")
	}
}

// FuzzReadEdgeList checks the parser at its trust boundary: it never
// panics, and a graph it accepts round-trips through WriteEdgeList and
// ReadEdgeList to identical rows. Inputs whose header or largest vertex
// index implies more than 2²⁰ vertices are skipped, so the fuzzer's own
// memory stays bounded.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("# 4 2\n0 1\n2 3\n"))
	f.Add([]byte("0 1\n1 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if impliedVertices(data) > 1<<20 {
			t.Skip("input implies more than 2^20 vertices")
		}
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("written graph rejected: %v", err)
		}
		if back.N() != g.N() || back.M() != g.M() {
			t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", back.N(), back.M(), g.N(), g.M())
		}
		for v := 0; v < g.N(); v++ {
			if !slices.Equal(g.Neighbors(v), back.Neighbors(v)) {
				t.Fatalf("round trip: row %d is %v, want %v", v, back.Neighbors(v), g.Neighbors(v))
			}
		}
	})
}

// impliedVertices returns the largest vertex count data's header or
// vertex indices imply, scanning lines as ReadEdgeList does.
func impliedVertices(data []byte) int {
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		var a, b int
		if strings.HasPrefix(line, "#") {
			if _, err := fmt.Sscanf(line, "# %d %d", &a, &b); err == nil {
				n = max(n, a)
			}
		} else if _, err := fmt.Sscanf(line, "%d %d", &a, &b); err == nil {
			n = max(n, a+1, b+1)
		}
	}
	return n
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4: n=%d m=%d, want 16/32", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("Q4 vertex %d degree %d", v, g.Degree(v))
		}
	}
	if !g.IsConnected() {
		t.Error("hypercube must be connected")
	}
	if q0 := Hypercube(0); q0.N() != 1 || q0.M() != 0 {
		t.Error("Q0 should be a single vertex")
	}
}

func TestTorus(t *testing.T) {
	g := Torus(4, 5)
	if g.N() != 20 {
		t.Fatalf("n = %d", g.N())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus vertex %d degree %d, want 4", v, g.Degree(v))
		}
	}
	// 2-wide torus collapses duplicate wrap edges.
	g2 := Torus(2, 3)
	if g2.MaxDegree() > 4 {
		t.Errorf("2x3 torus max degree %d", g2.MaxDegree())
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	if g.N() != 7 || g.M() != 12 {
		t.Fatalf("K3,4: n=%d m=%d", g.N(), g.M())
	}
	if g.HasEdge(0, 1) {
		t.Error("no edges within a part")
	}
	if !g.HasEdge(0, 3) {
		t.Error("cross edges missing")
	}
}

func TestBarbell(t *testing.T) {
	g := Barbell(5, 3)
	if g.N() != 13 {
		t.Fatalf("n = %d", g.N())
	}
	wantM := 2*10 + 4 // two K5s + path of 3 intermediates (4 bridge edges)
	if g.M() != wantM {
		t.Errorf("m = %d, want %d", g.M(), wantM)
	}
	if !g.IsConnected() {
		t.Error("barbell must be connected")
	}
	// Zero-length path: single bridging edge.
	g0 := Barbell(4, 0)
	if g0.M() != 2*6+1 || !g0.IsConnected() {
		t.Errorf("barbell(4,0): m=%d connected=%v", g0.M(), g0.IsConnected())
	}
}

func TestLollipop(t *testing.T) {
	g := Lollipop(6, 4)
	if g.N() != 10 || g.M() != 15+4 {
		t.Fatalf("lollipop: n=%d m=%d", g.N(), g.M())
	}
	if !g.IsConnected() {
		t.Error("lollipop must be connected")
	}
	if g.Degree(9) != 1 {
		t.Error("tail end should be degree 1")
	}
}
