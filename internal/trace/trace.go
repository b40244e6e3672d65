// Package trace collects and renders the per-node execution view of
// the SLEEPING-CONGEST simulator. Collector (a sim.Tracer) records
// which rounds each sampled node was awake — the deep view for
// debugging schedules (a node awake when its peer sleeps is the
// classic sleeping-model bug) — and counts messages lost to sleepers.
// Per-round aggregates, which cost nothing per node, come from a
// sim.RoundObserver instead (the facade's Report.RoundSummary).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"awakemis/internal/sim"
)

// DefaultMaxNodes is the node-sample cap NewCollector installs: enough
// for every timeline and busiest-node view while keeping the per-node
// maps bounded on million-node graphs.
const DefaultMaxNodes = 4096

// Collector implements sim.Tracer, recording awake rounds per node and
// message-loss counters. Per-node recording is O(awake rounds) memory
// per node, so Collector samples: once MaxNodes distinct nodes have
// been recorded, awake events for further nodes are counted but not
// stored. Because every node is awake in round 0 and rounds visit
// nodes in ascending index order, the sample is exactly the first
// MaxNodes node ids — deterministic across engines and worker counts.
// The message counters (Sent, Delivered, Lost, LostByRound) are global
// and unaffected by sampling.
type Collector struct {
	// AwakeRounds[v] lists the rounds node v was awake, ascending.
	// Only sampled nodes appear; see MaxNodes.
	AwakeRounds map[int][]int64
	// Sent, Delivered, Lost count messages.
	Sent, Delivered, Lost int64
	// LostByRound counts lost messages per round (schedule bugs show up
	// as loss spikes).
	LostByRound map[int64]int64
	// MaxNodes caps how many distinct nodes AwakeRounds records
	// (first-k by id). Zero or negative means unbounded — the historic
	// behavior, O(n·rounds) memory on large graphs.
	MaxNodes int
	// SkippedEvents counts awake events dropped by the sample cap; the
	// summary reports when a trace is partial.
	SkippedEvents int64
}

var _ sim.Tracer = (*Collector)(nil)

// NewCollector returns an empty Collector sampling at DefaultMaxNodes.
// Set MaxNodes before the run to widen, narrow, or (≤0) unbound the
// node sample.
func NewCollector() *Collector {
	return &Collector{
		AwakeRounds: map[int][]int64{},
		LostByRound: map[int64]int64{},
		MaxNodes:    DefaultMaxNodes,
	}
}

// NodeAwake implements sim.Tracer.
func (c *Collector) NodeAwake(round int64, node int) {
	rs, ok := c.AwakeRounds[node]
	if !ok && c.MaxNodes > 0 && len(c.AwakeRounds) >= c.MaxNodes {
		c.SkippedEvents++
		return
	}
	c.AwakeRounds[node] = append(rs, round)
}

// Message implements sim.Tracer.
func (c *Collector) Message(round int64, from, to, bits int, delivered bool) {
	c.Sent++
	if delivered {
		c.Delivered++
	} else {
		c.Lost++
		c.LostByRound[round]++
	}
}

// LossRate returns the fraction of messages lost to sleeping receivers.
func (c *Collector) LossRate() float64 {
	if c.Sent == 0 {
		return 0
	}
	return float64(c.Lost) / float64(c.Sent)
}

// Intervals compresses a node's awake rounds into [lo, hi] runs of
// consecutive rounds.
func (c *Collector) Intervals(node int) [][2]int64 {
	rounds := c.AwakeRounds[node]
	if len(rounds) == 0 {
		return nil
	}
	var out [][2]int64
	lo, hi := rounds[0], rounds[0]
	for _, r := range rounds[1:] {
		if r == hi+1 {
			hi = r
			continue
		}
		out = append(out, [2]int64{lo, hi})
		lo, hi = r, r
	}
	return append(out, [2]int64{lo, hi})
}

// Timeline renders an ASCII awake-density timeline: the horizon
// [0, maxRound] is split into width buckets and each bucket shows how
// many of the selected nodes were awake there (space, ., :, #, @ by
// density).
func (c *Collector) Timeline(nodes []int, width int) string {
	if width < 1 {
		width = 60
	}
	var maxRound int64 = 1
	for _, v := range nodes {
		rs := c.AwakeRounds[v]
		if len(rs) > 0 && rs[len(rs)-1]+1 > maxRound {
			maxRound = rs[len(rs)-1] + 1
		}
	}
	bucket := func(r int64) int {
		b := int(r * int64(width) / maxRound)
		if b >= width {
			b = width - 1
		}
		return b
	}
	var b strings.Builder
	fmt.Fprintf(&b, "rounds 0..%d, %d per cell\n", maxRound-1, (maxRound+int64(width)-1)/int64(width))
	for _, v := range nodes {
		counts := make([]int, width)
		for _, r := range c.AwakeRounds[v] {
			counts[bucket(r)]++
		}
		fmt.Fprintf(&b, "%6d |%s|\n", v, densityRow(counts))
	}
	return b.String()
}

func densityRow(counts []int) string {
	glyphs := []rune(" .:#@")
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	row := make([]rune, len(counts))
	for i, c := range counts {
		switch {
		case c == 0:
			row[i] = glyphs[0]
		case max <= 4:
			g := c
			if g >= len(glyphs) {
				g = len(glyphs) - 1
			}
			row[i] = glyphs[g]
		default:
			g := 1 + c*(len(glyphs)-2)/max
			if g >= len(glyphs) {
				g = len(glyphs) - 1
			}
			row[i] = glyphs[g]
		}
	}
	return string(row)
}

// BusiestNodes returns the ids of the k nodes with the most awake
// rounds, descending (ties by id).
func (c *Collector) BusiestNodes(k int) []int {
	type nc struct {
		node  int
		count int
	}
	all := make([]nc, 0, len(c.AwakeRounds))
	for v, rs := range c.AwakeRounds {
		all = append(all, nc{v, len(rs)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].node < all[j].node
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].node
	}
	return out
}

// Summary returns a one-paragraph description of the trace.
func (c *Collector) Summary() string {
	s := fmt.Sprintf("traced %d nodes; %d messages sent, %d delivered, %d lost to sleepers (%.1f%%)",
		len(c.AwakeRounds), c.Sent, c.Delivered, c.Lost, 100*c.LossRate())
	if c.SkippedEvents > 0 {
		s += fmt.Sprintf("; node sample capped at %d (first %d ids)", c.MaxNodes, c.MaxNodes)
	}
	return s
}
