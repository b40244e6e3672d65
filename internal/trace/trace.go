// Package trace collects and renders the per-node execution view of
// the SLEEPING-CONGEST simulator. Collector, a sim.RoundObserver,
// records which rounds each sampled node was awake — the deep view for
// debugging schedules (a node awake when its peer sleeps is the
// classic sleeping-model bug) — and counts messages lost to sleepers.
// It reads each round's awake nodes and traffic counters off the
// engine's one observation hook, so tracing costs nothing per message.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"awakemis/internal/sim"
)

// MaxNodes caps how many distinct nodes a Collector records: enough
// for every timeline and busiest-node view while keeping the per-node
// map bounded on million-node graphs.
const MaxNodes = 4096

// Collector is a sim.RoundObserver recording awake rounds per node and
// message-loss counters. Per-node recording is O(awake rounds) memory
// per node, so Collector samples: it records nodes 0..MaxNodes-1 only,
// and counts the awake rounds of every other node in SkippedEvents.
// Every node is awake in round 0, so the sample is exactly the first
// MaxNodes node ids — deterministic across engines and worker counts.
// The message counters (Sent, Delivered, Lost) are global and
// unaffected by sampling.
type Collector struct {
	// AwakeRounds[v] lists the rounds node v was awake, ascending.
	// Only sampled nodes appear; see MaxNodes.
	AwakeRounds map[int][]int64
	// Sent, Delivered, Lost count messages.
	Sent, Delivered, Lost int64
	// SkippedEvents counts the awake rounds of nodes beyond the sample;
	// the summary reports when a trace is partial.
	SkippedEvents int64
}

var _ sim.RoundObserver = (*Collector)(nil)

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{AwakeRounds: map[int][]int64{}}
}

// ObserveRound implements sim.RoundObserver. A round's Nodes ascend,
// so the nodes past the sample are the tail of the list.
func (c *Collector) ObserveRound(st sim.RoundStat) {
	for i, v := range st.Nodes {
		if v >= MaxNodes {
			c.SkippedEvents += int64(len(st.Nodes) - i)
			break
		}
		c.AwakeRounds[v] = append(c.AwakeRounds[v], st.Round)
	}
	c.Sent += st.Sent
	c.Delivered += st.Delivered
	c.Lost += st.Sent - st.Delivered
}

// LossRate returns the fraction of messages lost to sleeping receivers.
func (c *Collector) LossRate() float64 {
	if c.Sent == 0 {
		return 0
	}
	return float64(c.Lost) / float64(c.Sent)
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
		s += fmt.Sprintf("; node sample capped at %d (first %d ids)", MaxNodes, MaxNodes)
	}
	return s
}
