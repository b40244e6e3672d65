// Package vtree implements the virtual binary tree technique of §5.1:
// the in-order labeled full binary tree B([1,i]), its relabeling
// B*([1,i]) under g(x) = ⌊x/2⌋ + 1, and the communication sets
// S_k([1,i]) used to decide in which rounds a node with ID k must be
// awake. The communication sets guarantee (Observation 5) that any two
// nodes with IDs k < k′ share an awake round r with k < r ≤ k′, which
// is what lets VT-MIS and Awake-MIS propagate "in MIS" information with
// only O(log i) awake rounds per node.
package vtree

import (
	"fmt"
	"math/bits"
	"sort"
)

// Depth returns d = ⌈log₂ i⌉, the depth of B([1,i]). Depth(1) = 0.
func Depth(i int) int {
	if i < 1 {
		panic(fmt.Sprintf("vtree: invalid i=%d", i))
	}
	return bits.Len(uint(i - 1))
}

// Size returns the number of nodes y = 2^(d+1) - 1 of B([1,i]).
func Size(i int) int { return 1<<(Depth(i)+1) - 1 }

// Leaves returns the number of leaves 2^d of B([1,i]).
func Leaves(i int) int { return 1 << Depth(i) }

// CommSet returns S_k([1,i]): the B*-labels of the proper ancestors of
// the k-th leaf, clipped to values ≤ i and deduplicated, in increasing
// order. |S_k| ≤ ⌈log₂ i⌉ (Observation 4).
//
// Figure 2 of the paper clips labels exceeding i ("not in round 7,
// since there are only I rounds"); we apply the same clipping.
func CommSet(k, i int) []int { return commSet(k, i, 0) }

// commSet is CommSet with room for spare more elements.
func commSet(k, i, spare int) []int {
	if k < 1 || k > i {
		panic(fmt.Sprintf("vtree: k=%d out of [1,%d]", k, i))
	}
	d := Depth(i)
	set := make([]int, 0, d+spare)
	for h := 1; h <= d; h++ {
		m := (k - 1) >> uint(h)
		label := m<<uint(h) + 1<<uint(h-1) + 1
		if label <= i {
			set = append(set, label)
		}
	}
	sort.Ints(set)
	// Deduplicate (distinct heights can map to the same clipped label
	// only via equal labels, which cannot happen, but keep the guard).
	out := set[:0]
	for idx, v := range set {
		if idx == 0 || v != set[idx-1] {
			out = append(out, v)
		}
	}
	return out
}

// AwakeRounds returns S_k([1,i]) ∪ {k}: the full set of rounds, within
// a block of i rounds, in which the node holding ID k participates in
// the VT-MIS wake schedule (§5.3: "the node that has ID r as well as
// all nodes u for which r ∈ S_idu wake up").
func AwakeRounds(k, i int) []int {
	s := commSet(k, i, 1)
	pos := sort.SearchInts(s, k)
	if pos < len(s) && s[pos] == k {
		return s
	}
	s = append(s, 0) // within the spare capacity
	copy(s[pos+1:], s[pos:])
	s[pos] = k
	return s
}

// SharedRound returns the smallest r ∈ S_k ∩ S_k′ with k < r ≤ k′
// guaranteed by Observation 5, for k < k′.
func SharedRound(k, kp, i int) int {
	if k >= kp {
		panic(fmt.Sprintf("vtree: SharedRound requires k < k', got %d >= %d", k, kp))
	}
	// The B*-label of the lowest common ancestor of leaves k and k′.
	h := bits.Len(uint((k - 1) ^ (kp - 1))) // LCA height
	m := (k - 1) >> uint(h)
	return m<<uint(h) + 1<<uint(h-1) + 1
}

// Tree describes B([1,i]) and B*([1,i]) explicitly for rendering and
// golden tests; index 0 is the root, children at 2j+1 / 2j+2.
type Tree struct {
	// BLabel[j] is the in-order label of heap-position j in B([1,i]).
	BLabel []int
	// StarLabel[j] = g(BLabel[j]) is the label in B*([1,i]).
	StarLabel []int
	depth     int
}

// Build materializes B([1,i]) / B*([1,i]).
func Build(i int) *Tree {
	d := Depth(i)
	y := Size(i)
	t := &Tree{BLabel: make([]int, y), StarLabel: make([]int, y), depth: d}
	// Heap position j at depth dep is the (j - (2^dep - 1))-th node of
	// its level; its in-order label follows from its leaf span.
	var fill func(j, dep, leafLo int)
	fill = func(j, dep, leafLo int) {
		span := 1 << uint(d-dep) // leaves under this node
		// In-order label of subtree root with leaf range [leafLo, leafLo+span-1]:
		// leaves sit at odd labels 2m-1, so the root label is lo+hi-1 in
		// leaf indices doubled: (2*leafLo-1 + 2*(leafLo+span-1)-1)/2.
		t.BLabel[j] = 2*leafLo + span - 2
		if span == 1 {
			t.BLabel[j] = 2*leafLo - 1
		}
		t.StarLabel[j] = t.BLabel[j]/2 + 1
		if dep < d {
			fill(2*j+1, dep+1, leafLo)
			fill(2*j+2, dep+1, leafLo+span/2)
		}
	}
	fill(0, 0, 1)
	return t
}

// Depth returns the tree depth d.
func (t *Tree) Depth() int { return t.depth }

// LeafPosition returns the heap index of the k-th leaf (1-based).
func (t *Tree) LeafPosition(k int) int {
	return (1<<uint(t.depth) - 1) + (k - 1)
}

// AncestorStarLabels returns the B*-labels on the path from the k-th
// leaf's parent up to the root (the unclipped communication set).
func (t *Tree) AncestorStarLabels(k int) []int {
	var out []int
	j := t.LeafPosition(k)
	for j > 0 {
		j = (j - 1) / 2
		out = append(out, t.StarLabel[j])
	}
	sort.Ints(out)
	return out
}
