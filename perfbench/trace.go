package main

import (
	"strings"
	"time"
)

// span is one timed call into a layer: its name, bounds, the span that
// made it, and the op it belongs to. Op is -1 for calls made while
// checking outputs or probing layers, which belong to no op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the run writes them out when it ends.
// A nil tracer records nothing, so untraced code calls it freely. Only
// the benchmark's closed loop records spans, from one goroutine.
type tracer struct {
	t0    time.Time
	op    int // the op being traced, or -1
	ops   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// beginOp opens the root span of the next op.
func (t *tracer) beginOp() int {
	if t == nil {
		return -1
	}
	t.op = t.ops
	t.ops++
	return t.begin("op", -1)
}

// endOp closes an op's root span.
func (t *tracer) endOp(root int) {
	if t == nil {
		return
	}
	t.end(root)
	t.op = -1
}

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(name, parent, time.Now(), time.Time{})
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// add records a span whose bounds were measured elsewhere; a zero end
// leaves it open for end.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	s := span{ID: len(t.spans), Parent: parent, Op: t.op, Name: name, Start: int64(start.Sub(t.t0)), End: -1}
	if !end.IsZero() {
		s.End = int64(end.Sub(t.t0))
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// meanMS is the mean duration in ms of the spans named name, 0 if none.
func (t *tracer) meanMS(name string) float64 {
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / 1e6 / float64(n)
}

// selfByLayer sums each layer's self time over the traced ops — a
// span's duration less the part its direct children cover — and
// returns it with the number of ops. A span's layer is its name up to
// the first dot; an op's root span is layer "op", the benchmark's own
// code between the calls.
func (t *tracer) selfByLayer() (map[string]time.Duration, int) {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Op >= 0 {
			layer, _, _ := strings.Cut(s.Name, ".")
			self[layer] += time.Duration(s.End - s.Start - covered[s.ID])
		}
	}
	return self, t.ops
}
