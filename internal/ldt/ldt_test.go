package ldt

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"awakemis/internal/graph"
	"awakemis/internal/sim"
)

// snapshot captures a node's final LDT state for validation.
type snapshot struct {
	id         int64
	rootID     int64
	depth      int
	parentPort int
	children   []int
	active     int // participants Hello discovered
	rank       int
	total      int
	cursor     int64
	payload    []byte
}

type harness struct {
	mu    sync.Mutex
	snaps map[int]*snapshot
}

func (h *harness) put(v int, s *snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.snaps[v] = s
}

// session configures one LDT session run by every participant: Hello,
// a construction, then optionally Rank and a chunked broadcast of
// payload, in the order ldtmis.Session runs them.
type session struct {
	np            int
	deterministic bool
	withRank      bool
	payload       []byte
	ids           []int  // node v's ID is ids[v]+1
	member        []bool // nil: every node participates
}

// run executes the session on g under cfg and records each
// participant's final state.
func (c session) run(g *graph.Graph, cfg sim.Config) (*harness, *sim.Metrics, error) {
	h := &harness{snaps: map[int]*snapshot{}}
	prog := func(env *sim.NodeEnv) sim.StepNode {
		return &sessionNode{c: &c, h: h, env: env}
	}
	m, err := sim.RunStep(g, prog, cfg)
	return h, m, err
}

// sessionNode runs one participant's session on a sim.Machine, starting
// at round 1. Each stage runs once the previous one has completed; a
// stage whose procedure yields resumes in next.
type sessionNode struct {
	sim.Machine
	c     *session
	h     *harness
	env   *sim.NodeEnv
	p     SProc
	s     snapshot
	stage int
}

func (n *sessionNode) Start(out *sim.Outbox) {
	n.Begin(out, func() { n.Yield(0, nil, n.begin) })
}

func (n *sessionNode) begin([]sim.Inbound) {
	if n.c.member != nil && !n.c.member[n.env.ID] {
		return // non-participants drop out after round 0
	}
	n.s.id = int64(n.c.ids[n.env.ID] + 1)
	n.p.Init(&n.Machine, n.env.Rand, 1, n.s.id, n.c.np, n.next)
	n.next()
}

// next runs stages until one yields or the session is over.
func (n *sessionNode) next() {
	p, c := &n.p, n.c
	for {
		n.stage++
		switch n.stage {
		case 1:
			if p.Hello() {
				return
			}
		case 2:
			n.s.active = len(p.Active())
			if c.deterministic {
				if p.ConstructRound(DefaultRoundPhases(c.np)) {
					return
				}
			} else if p.ConstructAwake(DefaultAwakePhases(c.np)) {
				return
			}
		case 3:
			n.s.rootID, n.s.depth, n.s.parentPort = p.rootID, p.depth, p.parentPort
			n.s.children = append([]int(nil), p.children...)
			if c.withRank && p.Rank() {
				return
			}
		case 4:
			if c.withRank {
				n.s.rank, n.s.total = p.Ranked()
			}
			if c.payload != nil {
				bits := len(c.payload) * 8
				chunkBits := n.env.Bandwidth / 2
				if p.BroadcastChunks(c.payload, bits, chunkBits, NumChunks(bits, chunkBits)) {
					return
				}
			}
		default:
			if c.payload != nil {
				n.s.payload = p.Data()
			}
			n.s.cursor = p.Cursor()
			n.h.put(n.env.ID, &n.s)
			return
		}
	}
}

// runLDT builds an LDT over g (all nodes participating) with the given
// construction, then optionally ranks and broadcasts a payload.
func runLDT(t *testing.T, g *graph.Graph, np int, seed int64, deterministic bool,
	withRank bool, payload []byte) (*harness, *sim.Metrics) {
	t.Helper()
	c := session{
		np:            np,
		deterministic: deterministic,
		withRank:      withRank,
		payload:       payload,
		ids:           rand.New(rand.NewSource(seed ^ 0x5ca1ab1e)).Perm(1 << 16),
	}
	h, m, err := c.run(g, sim.Config{Seed: seed, N: 1 << 16, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	return h, m
}

// validateLDT checks the three LDT properties of §5.2 on every
// connected component: common root ID, correct depths, and
// parent/child pointer consistency.
func validateLDT(t *testing.T, g *graph.Graph, h *harness) {
	t.Helper()
	for ci, comp := range g.Components() {
		// (i) all nodes agree on the root ID, which must be a member's ID.
		rootID := h.snaps[comp[0]].rootID
		var root = -1
		for _, v := range comp {
			s := h.snaps[v]
			if s.rootID != rootID {
				t.Fatalf("component %d: node %d rootID %d != %d", ci, v, s.rootID, rootID)
			}
			if s.id == rootID {
				root = v
			}
		}
		if root < 0 {
			t.Fatalf("component %d: no member owns root ID %d", ci, rootID)
		}
		// (iii) parent/child pointers form a spanning tree rooted there.
		rs := h.snaps[root]
		if rs.parentPort != -1 {
			t.Fatalf("component %d: root %d has parent port %d", ci, root, rs.parentPort)
		}
		seen := map[int]bool{}
		queue := []int{root}
		seen[root] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			s := h.snaps[v]
			// (ii) depth consistency.
			for _, q := range s.children {
				w := g.Neighbor(v, q)
				ws := h.snaps[w]
				if seen[w] {
					t.Fatalf("component %d: node %d reached twice", ci, w)
				}
				seen[w] = true
				if ws.depth != s.depth+1 {
					t.Fatalf("component %d: child %d depth %d, parent %d depth %d",
						ci, w, ws.depth, v, s.depth)
				}
				if g.Neighbor(w, ws.parentPort) != v {
					t.Fatalf("component %d: node %d parent port mismatch", ci, w)
				}
				queue = append(queue, w)
			}
		}
		if len(seen) != len(comp) {
			t.Fatalf("component %d: tree spans %d of %d nodes", ci, len(seen), len(comp))
		}
	}
}

func testGraphs(seed int64) map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return map[string]*graph.Graph{
		"single":   graph.New(1),
		"pair":     graph.Path(2),
		"path9":    graph.Path(9),
		"cycle12":  graph.Cycle(12),
		"star10":   graph.Star(10),
		"complete": graph.Complete(7),
		"tree20":   graph.RandomTree(20, rng),
		"gnp":      connectify(graph.GNP(24, 0.15, rng)),
		"grid":     graph.Grid(4, 5),
		"disjoint": graph.DisjointUnion(graph.Cycle(5), graph.Path(4), graph.New(2)),
	}
}

// connectify links components of g so LDT sizing stays within np.
func connectify(g *graph.Graph) *graph.Graph {
	comps := g.Components()
	edges := g.Edges()
	for i := 1; i < len(comps); i++ {
		edges = append(edges, [2]int{comps[i-1][0], comps[i][0]})
	}
	return graph.MustFromEdges(g.N(), edges)
}

func TestConstructAwakeBuildsLDT(t *testing.T) {
	for name, g := range testGraphs(1) {
		t.Run(name, func(t *testing.T) {
			h, _ := runLDT(t, g, maxComp(g), 42, false, false, nil)
			validateLDT(t, g, h)
		})
	}
}

func TestConstructRoundBuildsLDT(t *testing.T) {
	for name, g := range testGraphs(2) {
		t.Run(name, func(t *testing.T) {
			h, _ := runLDT(t, g, maxComp(g), 43, true, false, nil)
			validateLDT(t, g, h)
		})
	}
}

func maxComp(g *graph.Graph) int {
	max := 1
	for _, c := range g.Components() {
		if len(c) > max {
			max = len(c)
		}
	}
	return max
}

func TestConstructRoundSpanExact(t *testing.T) {
	// The static span formula must match the rounds the implementation
	// actually consumes (schedule consistency is what synchronizes
	// nodes, so drift would be a correctness bug).
	g := graph.Cycle(9)
	np := 9
	h, _ := runLDT(t, g, np, 44, true, false, nil)
	want := int64(1) + spanAdjacent + SpanConstructRound(np, DefaultRoundPhases(np))
	for v, s := range h.snaps {
		if s.cursor != want {
			t.Fatalf("node %d cursor %d, want %d", v, s.cursor, want)
		}
	}
}

func TestConstructAwakeSpanExact(t *testing.T) {
	g := graph.Path(6)
	np := 6
	h, _ := runLDT(t, g, np, 45, false, false, nil)
	want := int64(1) + spanAdjacent + SpanConstructAwake(np, DefaultAwakePhases(np))
	for v, s := range h.snaps {
		if s.cursor != want {
			t.Fatalf("node %d cursor %d, want %d", v, s.cursor, want)
		}
	}
}

func TestConstructAwakeAwakeComplexity(t *testing.T) {
	// Lemma 6 analogue: O(log n') awake. With our windows each node is
	// awake O(1) rounds per merge phase, so the bound is
	// c · DefaultAwakePhases(np) for a small constant c.
	g := graph.Cycle(64)
	_, m := runLDT(t, g, 64, 46, false, false, nil)
	phases := int64(DefaultAwakePhases(64))
	if m.MaxAwake > 12*phases {
		t.Errorf("MaxAwake %d > 12 phases (%d)", m.MaxAwake, 12*phases)
	}
}

func TestRanking(t *testing.T) {
	for name, g := range testGraphs(3) {
		t.Run(name, func(t *testing.T) {
			h, _ := runLDT(t, g, maxComp(g), 47, false, true, nil)
			validateLDT(t, g, h)
			for _, comp := range g.Components() {
				// Ranks form a permutation of 1..|comp| and totals match.
				ranks := []int{}
				for _, v := range comp {
					s := h.snaps[v]
					if s.total != len(comp) {
						t.Fatalf("node %d total %d, want %d", v, s.total, len(comp))
					}
					ranks = append(ranks, s.rank)
				}
				sort.Ints(ranks)
				for i, r := range ranks {
					if r != i+1 {
						t.Fatalf("ranks %v are not 1..%d", ranks, len(comp))
					}
				}
			}
		})
	}
}

func TestRankingRespectsInOrder(t *testing.T) {
	// For each node, the first (lowest-port) child's subtree must rank
	// entirely before it, and remaining subtrees entirely after.
	g := graph.RandomTree(30, rand.New(rand.NewSource(9)))
	h, _ := runLDT(t, g, 30, 48, true, true, nil)
	validateLDT(t, g, h)
	var subtree func(v int) []int
	subtree = func(v int) []int {
		out := []int{v}
		for _, q := range h.snaps[v].children {
			out = append(out, subtree(g.Neighbor(v, q))...)
		}
		return out
	}
	for v, s := range h.snaps {
		if len(s.children) == 0 {
			continue
		}
		firstChild := g.Neighbor(v, s.children[0])
		for _, w := range subtree(firstChild) {
			if h.snaps[w].rank >= s.rank {
				t.Fatalf("node %d (rank %d) not after first subtree node %d (rank %d)",
					v, s.rank, w, h.snaps[w].rank)
			}
		}
		for _, q := range s.children[1:] {
			for _, w := range subtree(g.Neighbor(v, q)) {
				if h.snaps[w].rank <= s.rank {
					t.Fatalf("node %d (rank %d) not before later subtree node %d (rank %d)",
						v, s.rank, w, h.snaps[w].rank)
				}
			}
		}
	}
}

func TestBroadcastChunks(t *testing.T) {
	payload := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67, 0x89}
	for _, name := range []string{"path9", "star10", "complete"} {
		g := testGraphs(4)[name]
		t.Run(name, func(t *testing.T) {
			h, _ := runLDT(t, g, g.N(), 49, false, false, payload)
			for v, s := range h.snaps {
				if fmt.Sprintf("%x", s.payload) != fmt.Sprintf("%x", payload) {
					t.Fatalf("node %d payload %x, want %x", v, s.payload, payload)
				}
			}
		})
	}
}

func TestBroadcastChunksAwakeBudget(t *testing.T) {
	// Lemma 9 analogue: O(1) awake per chunk window, independent of n'.
	g := graph.Path(40)
	payload := make([]byte, 16)
	h, m := runLDT(t, g, 40, 50, false, false, payload)
	validateLDT(t, g, h)
	bits := len(payload) * 8
	chunkBits := sim.DefaultBandwidth(1<<16) / 2
	chunks := int64(NumChunks(bits, chunkBits))
	construct := int64(DefaultAwakePhases(40))
	if m.MaxAwake > 12*construct+4*chunks {
		t.Errorf("MaxAwake %d exceeds budget (construct %d, chunks %d)",
			m.MaxAwake, construct, chunks)
	}
}

func TestNumChunks(t *testing.T) {
	tests := []struct{ bits, chunk, want int }{
		{0, 10, 0},
		{1, 10, 1},
		{10, 10, 1},
		{11, 10, 2},
		{100, 7, 15},
	}
	for _, tt := range tests {
		if got := NumChunks(tt.bits, tt.chunk); got != tt.want {
			t.Errorf("NumChunks(%d,%d) = %d, want %d", tt.bits, tt.chunk, got, tt.want)
		}
	}
}

func TestSliceBits(t *testing.T) {
	data := []byte{0b10110100, 0b01011110}
	got := sliceBits(data, 3, 11)
	// bits 3..10: 10100 010 -> 0b10100010
	if got[0] != 0b10100010 {
		t.Errorf("sliceBits = %08b", got[0])
	}
}

func TestOpMsgBits(t *testing.T) {
	m := opMsg{Kind: kRoot, F: []int64{1, -5, 1000}}
	want := 5 + 3 + 2 + 4 + 11
	if got := m.Bits(); got != want {
		t.Errorf("Bits = %d, want %d", got, want)
	}
	c := chunkMsg{Data: []byte{1, 2}, NBits: 13}
	if c.Bits() != 21 {
		t.Errorf("chunk Bits = %d, want 21", c.Bits())
	}
}

func TestDeterministicConstructReplay(t *testing.T) {
	g := graph.Grid(4, 4)
	run := func() map[int]*snapshot {
		h, _ := runLDT(t, g, 16, 51, true, true, nil)
		return h.snaps
	}
	a, b := run(), run()
	for v := range a {
		if a[v].rootID != b[v].rootID || a[v].rank != b[v].rank || a[v].depth != b[v].depth {
			t.Fatalf("replay diverged at node %d", v)
		}
	}
}

// bitAt reads bit i of data, most significant first.
func bitAt(data []byte, i int) byte { return data[i/8] >> (7 - uint(i%8)) & 1 }

// Randomized equivalence: bitAccum.appendRange and sliceBits, whose
// byte-aligned fast paths copy whole bytes, produce exactly the bits a
// bit-at-a-time copy does, aligned or not.
func TestBitCopiesMatchBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, 1+rng.Intn(40))
		rng.Read(data)
		lo := rng.Intn(8 * len(data))
		if rng.Intn(2) == 0 {
			lo &^= 7 // byte-aligned source
		}
		hi := lo + rng.Intn(8*len(data)-lo+1)

		var want []byte // reference bits
		for i := lo; i < hi; i++ {
			want = append(want, bitAt(data, i))
		}
		got := sliceBits(data, lo, hi)
		if len(got) != (hi-lo+7)/8 {
			t.Fatalf("sliceBits(%d,%d): %d bytes", lo, hi, len(got))
		}
		for i, b := range want {
			if bitAt(got, i) != b {
				t.Fatalf("sliceBits(%d,%d): bit %d differs", lo, hi, i)
			}
		}
		for i := len(want); i < 8*len(got); i++ {
			if bitAt(got, i) != 0 {
				t.Fatalf("sliceBits(%d,%d): padding bit %d set", lo, hi, i)
			}
		}

		// An accumulator holding a random prefix (so both aligned and
		// unaligned destinations occur) then the range.
		a := &bitAccum{}
		prefix := make([]byte, 8)
		rng.Read(prefix)
		pbits := rng.Intn(64)
		if rng.Intn(2) == 0 {
			pbits &^= 7
		}
		a.append(prefix, pbits)
		a.appendRange(data, lo, hi)
		var wantAll []byte
		for i := 0; i < pbits; i++ {
			wantAll = append(wantAll, bitAt(prefix, i))
		}
		wantAll = append(wantAll, want...)
		if a.bits != len(wantAll) || len(a.out) != (len(wantAll)+7)/8 {
			t.Fatalf("appendRange(%d,%d) after %d bits: %d bits in %d bytes", lo, hi, pbits, a.bits, len(a.out))
		}
		for i, b := range wantAll {
			if bitAt(a.out, i) != b {
				t.Fatalf("appendRange(%d,%d) after %d bits: bit %d differs", lo, hi, pbits, i)
			}
		}
		for i := len(wantAll); i < 8*len(a.out); i++ {
			if bitAt(a.out, i) != 0 {
				t.Fatalf("appendRange(%d,%d) after %d bits: padding bit %d set", lo, hi, pbits, i)
			}
		}
	}
}
