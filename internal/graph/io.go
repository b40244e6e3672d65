package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
)

// WriteEdgeList writes g in the plain interchange format used by
// cmd/graphgen: a "# n m" header line followed by one "u v" pair per
// line with u < v, in sorted order. Edges stream straight off the CSR
// rows; no edge list is materialized.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# %d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the WriteEdgeList format. Blank lines and lines
// starting with "%" or "//" are ignored; a leading "# n m" header fixes
// the vertex count (otherwise it is inferred as max index + 1). Vertex
// indices must be non-negative, and every index and the header's n
// must fit in an int32, so no input wraps or sizes the graph beyond
// the CSR arrays' range. The
// parse collects flat half-edge arrays (4 bytes per endpoint) and the
// graph is assembled by the same count + fill CSR build the generators
// use, so a 100M-edge file is never held as a boxed edge list.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	n := -1
	var us, vs []int32
	maxV := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			var hn, hm int
			if _, err := fmt.Sscanf(line, "# %d %d", &hn, &hm); err == nil {
				if hn < 0 || hn > math.MaxInt32 {
					return nil, fmt.Errorf("graph: line %d: header n=%d outside [0, %d]", lineNo, hn, math.MaxInt32)
				}
				n = hn
			}
			continue
		}
		var u, v int
		if _, err := fmt.Sscanf(line, "%d %d", &u, &v); err != nil {
			return nil, fmt.Errorf("graph: line %d: %q: %w", lineNo, line, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex index", lineNo)
		}
		if u > math.MaxInt32 || v > math.MaxInt32 {
			return nil, fmt.Errorf("graph: line %d: vertex index exceeds int32", lineNo)
		}
		if u > maxV {
			maxV = u
		}
		if v > maxV {
			maxV = v
		}
		us = append(us, int32(u))
		vs = append(vs, int32(v))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		n = maxV + 1
	}
	if n < maxV+1 {
		return nil, fmt.Errorf("graph: header n=%d below max vertex %d", n, maxV)
	}
	return fromPairsChecked(n, us, vs)
}
