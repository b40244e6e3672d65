package trace

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"awakemis/internal/graph"
	"awakemis/internal/sim"
)

// run executes a tiny two-node protocol with a known wake pattern and
// returns the collector.
func run(t *testing.T) *Collector {
	t.Helper()
	c := NewCollector()
	g := graph.Path(2)
	prog := func(env *sim.NodeEnv) sim.StepNode {
		if env.ID == 0 {
			// Awake rounds 0, 1, 2 and 10, sending in round 1.
			return &scripted{wakes: []int64{1, 2, 10}, send: map[int64]bool{1: true}}
		}
		// Awake round 0 only; the round-1 message from node 0 is lost.
		return &scripted{}
	}
	if _, err := sim.RunStepContext(context.Background(), g, prog, sim.Config{Seed: 1, Observer: c}); err != nil {
		t.Fatal(err)
	}
	return c
}

type probe struct{}

func (probe) Bits() int { return 1 }

// scripted is a step node that wakes in round 0 and then in each round
// of wakes (ascending), broadcasts a probe in every round send lists,
// and halts after its last wake.
type scripted struct {
	wakes []int64
	send  map[int64]bool
	next  int
}

func (s *scripted) Start(out *sim.Outbox) {
	if s.send[0] {
		out.Broadcast(probe{})
	}
}

func (s *scripted) OnWake(_ int64, _ []sim.Inbound, out *sim.Outbox) (int64, bool) {
	if s.next == len(s.wakes) {
		return 0, true
	}
	r := s.wakes[s.next]
	s.next++
	if s.send[r] {
		out.Broadcast(probe{})
	}
	return r, false
}

func TestCollectorAwakeRounds(t *testing.T) {
	c := run(t)
	want0 := []int64{0, 1, 2, 10}
	got0 := c.AwakeRounds[0]
	if len(got0) != len(want0) {
		t.Fatalf("node 0 awake %v, want %v", got0, want0)
	}
	for i := range want0 {
		if got0[i] != want0[i] {
			t.Fatalf("node 0 awake %v, want %v", got0, want0)
		}
	}
	if len(c.AwakeRounds[1]) != 1 || c.AwakeRounds[1][0] != 0 {
		t.Errorf("node 1 awake %v, want [0]", c.AwakeRounds[1])
	}
}

func TestCollectorMessageLoss(t *testing.T) {
	c := run(t)
	if c.Sent != 1 || c.Delivered != 0 || c.Lost != 1 {
		t.Errorf("sent/delivered/lost = %d/%d/%d, want 1/0/1", c.Sent, c.Delivered, c.Lost)
	}
	if c.LossRate() != 1 {
		t.Errorf("LossRate = %v, want 1", c.LossRate())
	}
	if !strings.Contains(c.Summary(), "1 lost") {
		t.Errorf("summary: %s", c.Summary())
	}
}

func TestEmptyCollector(t *testing.T) {
	c := NewCollector()
	if c.LossRate() != 0 {
		t.Error("empty collector loss rate should be 0")
	}
}

func TestTimelineRendering(t *testing.T) {
	c := run(t)
	out := c.Timeline([]int{0, 1}, 11)
	if !strings.Contains(out, "rounds 0..10") {
		t.Errorf("timeline header wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline should have 3 lines:\n%s", out)
	}
	// Node 0's row: awake at start and at the end.
	row0 := lines[1]
	if !strings.Contains(row0, "0 |") {
		t.Errorf("row0 = %q", row0)
	}
	if strings.Count(row0, ".")+strings.Count(row0, ":")+strings.Count(row0, "#")+strings.Count(row0, "@") < 2 {
		t.Errorf("row0 should show at least 2 awake cells: %q", row0)
	}
	// Degenerate width falls back.
	if out := c.Timeline([]int{0}, 0); !strings.Contains(out, "|") {
		t.Error("zero width should fall back to default")
	}
}

func TestBusiestNodes(t *testing.T) {
	c := run(t)
	if got := c.BusiestNodes(2); len(got) != 2 || got[0] != 0 {
		t.Errorf("busiest = %v, want [0 1]", got)
	}
	if got := c.BusiestNodes(99); len(got) != 2 {
		t.Errorf("k beyond population should clamp: %v", got)
	}
}

// TestMaxNodesSampling pins the scalability cap: nodes past the first
// MaxNodes ids have their awake rounds counted but not stored, and the
// global message counters are unaffected.
func TestMaxNodesSampling(t *testing.T) {
	c := NewCollector()
	g := graph.Cycle(MaxNodes + 4)
	prog := func(env *sim.NodeEnv) sim.StepNode {
		return &scripted{wakes: []int64{1}, send: map[int64]bool{0: true, 1: true}}
	}
	if _, err := sim.RunStepContext(context.Background(), g, prog, sim.Config{Seed: 1, Observer: c}); err != nil {
		t.Fatal(err)
	}
	if len(c.AwakeRounds) != MaxNodes {
		t.Fatalf("sampled %d nodes, want %d", len(c.AwakeRounds), MaxNodes)
	}
	for v := 0; v < MaxNodes; v++ {
		if len(c.AwakeRounds[v]) != 2 {
			t.Fatalf("node %d awake rounds %v, want 2 entries", v, c.AwakeRounds[v])
		}
	}
	if _, ok := c.AwakeRounds[MaxNodes]; ok {
		t.Error("node beyond the cap was recorded")
	}
	if c.SkippedEvents != 2*4 {
		t.Errorf("skipped events = %d, want 8", c.SkippedEvents)
	}
	if want := int64(2 * 2 * g.M()); c.Sent != want || c.Delivered != want {
		t.Errorf("global counters perturbed by sampling: sent/delivered = %d/%d, want %d", c.Sent, c.Delivered, want)
	}
	if !strings.Contains(c.Summary(), fmt.Sprintf("capped at %d", MaxNodes)) {
		t.Errorf("summary should flag the partial sample: %s", c.Summary())
	}
}

func TestDensityRow(t *testing.T) {
	if got := densityRow([]int{0, 1, 2, 5}); len([]rune(got)) != 4 {
		t.Errorf("row length wrong: %q", got)
	}
	if got := densityRow([]int{0, 0}); got != "  " {
		t.Errorf("all-zero row = %q", got)
	}
	// High-count rows use the scaled branch.
	got := densityRow([]int{0, 100, 50, 10})
	if []rune(got)[0] != ' ' || []rune(got)[1] != '@' {
		t.Errorf("scaled row = %q", got)
	}
}
