package vtree

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestDepthSizeLeaves(t *testing.T) {
	tests := []struct{ i, d, size, leaves int }{
		{1, 0, 1, 1},
		{2, 1, 3, 2},
		{3, 2, 7, 4},
		{4, 2, 7, 4},
		{6, 3, 15, 8},
		{8, 3, 15, 8},
		{9, 4, 31, 16},
	}
	for _, tt := range tests {
		if got := Depth(tt.i); got != tt.d {
			t.Errorf("Depth(%d) = %d, want %d", tt.i, got, tt.d)
		}
		if got := Size(tt.i); got != tt.size {
			t.Errorf("Size(%d) = %d, want %d", tt.i, got, tt.size)
		}
		if got := Leaves(tt.i); got != tt.leaves {
			t.Errorf("Leaves(%d) = %d, want %d", tt.i, got, tt.leaves)
		}
	}
}

// TestFigure1 reproduces Figure 1 of the paper: the in-order labels of
// B([1,6]) and the g(x)=⌊x/2⌋+1 labels of B*([1,6]).
func TestFigure1(t *testing.T) {
	tr := Build(6)
	// Level-order (heap) traversal of the depth-3 tree in the figure.
	wantB := []int{8, 4, 12, 2, 6, 10, 14, 1, 3, 5, 7, 9, 11, 13, 15}
	wantStar := []int{5, 3, 7, 2, 4, 6, 8, 1, 2, 3, 4, 5, 6, 7, 8}
	if !reflect.DeepEqual(tr.BLabel, wantB) {
		t.Errorf("B([1,6]) labels = %v, want %v", tr.BLabel, wantB)
	}
	if !reflect.DeepEqual(tr.StarLabel, wantStar) {
		t.Errorf("B*([1,6]) labels = %v, want %v", tr.StarLabel, wantStar)
	}
}

// TestFigure2 reproduces Figure 2: S₃([1,6]) = {3,4,5} and
// S₅([1,6]) = {5,6} (7 clipped because there are only I=6 rounds), and
// the shared round 5 ∈ S₃ ∩ S₅ with 3 < 5 ≤ 5.
func TestFigure2(t *testing.T) {
	s3 := CommSet(3, 6)
	if !reflect.DeepEqual(s3, []int{3, 4, 5}) {
		t.Errorf("S3([1,6]) = %v, want [3 4 5]", s3)
	}
	s5 := CommSet(5, 6)
	if !reflect.DeepEqual(s5, []int{5, 6}) {
		t.Errorf("S5([1,6]) = %v, want [5 6]", s5)
	}
	if r := SharedRound(3, 5, 6); r != 5 {
		t.Errorf("SharedRound(3,5,6) = %d, want 5", r)
	}
	// The unclipped ancestors of leaf 5 include 7, as drawn.
	anc := Build(6).AncestorStarLabels(5)
	if !reflect.DeepEqual(anc, []int{5, 6, 7}) {
		t.Errorf("ancestors of leaf 5 = %v, want [5 6 7]", anc)
	}
}

// TestCommSetMatchesTree cross-checks the closed-form CommSet against
// the explicit tree's ancestor labels.
func TestCommSetMatchesTree(t *testing.T) {
	for _, i := range []int{1, 2, 3, 5, 6, 8, 13, 16, 33} {
		tr := Build(i)
		for k := 1; k <= i; k++ {
			want := []int{}
			for _, l := range tr.AncestorStarLabels(k) {
				if l <= i {
					want = append(want, l)
				}
			}
			got := CommSet(k, i)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("CommSet(%d,%d) = %v, tree says %v", k, i, got, want)
			}
		}
	}
}

// TestObservation4 verifies |S_k([1,i])| ≤ ⌈log₂ i⌉.
func TestObservation4(t *testing.T) {
	for _, i := range []int{1, 2, 3, 4, 7, 8, 16, 100, 1000} {
		for k := 1; k <= i; k++ {
			if got := len(CommSet(k, i)); got > Depth(i) {
				t.Errorf("|S_%d([1,%d])| = %d > ⌈log i⌉ = %d", k, i, got, Depth(i))
			}
		}
	}
}

// TestObservation5 verifies that for all k < k′ there is a round
// r ∈ S_k ∩ S_k′ with k < r ≤ k′.
func TestObservation5(t *testing.T) {
	for _, i := range []int{2, 3, 6, 8, 17, 64} {
		for k := 1; k <= i; k++ {
			for kp := k + 1; kp <= i; kp++ {
				r := SharedRound(k, kp, i)
				if r <= k || r > kp {
					t.Fatalf("i=%d k=%d k'=%d: shared round %d not in (k,k']", i, k, kp, r)
				}
				if !contains(CommSet(k, i), r) {
					t.Fatalf("i=%d: %d not in S_%d = %v", i, r, k, CommSet(k, i))
				}
				if !contains(CommSet(kp, i), r) {
					t.Fatalf("i=%d: %d not in S_%d = %v", i, r, kp, CommSet(kp, i))
				}
			}
		}
	}
}

// Property-based version of Observation 5 over larger random inputs.
func TestQuickObservation5(t *testing.T) {
	f := func(a, b uint16, ii uint16) bool {
		i := int(ii%5000) + 2
		k := int(a)%i + 1
		kp := int(b)%i + 1
		if k == kp {
			return true
		}
		if k > kp {
			k, kp = kp, k
		}
		r := SharedRound(k, kp, i)
		return r > k && r <= kp && contains(CommSet(k, i), r) && contains(CommSet(kp, i), r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAwakeRoundsIncludesOwnID(t *testing.T) {
	for _, i := range []int{1, 2, 6, 16, 100} {
		for k := 1; k <= i; k++ {
			ar := AwakeRounds(k, i)
			if !contains(ar, k) {
				t.Errorf("AwakeRounds(%d,%d) = %v missing own ID", k, i, ar)
			}
			if len(ar) > Depth(i)+1 {
				t.Errorf("AwakeRounds(%d,%d) too large: %v", k, i, ar)
			}
			for idx := 1; idx < len(ar); idx++ {
				if ar[idx-1] >= ar[idx] {
					t.Errorf("AwakeRounds(%d,%d) not strictly sorted: %v", k, i, ar)
				}
			}
			for _, r := range ar {
				if r < 1 || r > i {
					t.Errorf("AwakeRounds(%d,%d) out of range: %v", k, i, ar)
				}
			}
		}
	}
}

// TestNextAwakeRoundWalksAwakeRounds checks that walking
// NextAwakeRound from 0 yields exactly AwakeRounds(k, i), for every
// 1 ≤ k ≤ i ≤ 1024, and that it returns the smallest element above
// any after for i ≤ 130.
func TestNextAwakeRoundWalksAwakeRounds(t *testing.T) {
	for i := 1; i <= 1024; i++ {
		for k := 1; k <= i; k++ {
			want := AwakeRounds(k, i)
			var got []int
			for r := NextAwakeRound(k, i, 0); r != 0; r = NextAwakeRound(k, i, r) {
				if len(got) > len(want) {
					break
				}
				got = append(got, r)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("walking NextAwakeRound(%d, %d, ·) gives %v, AwakeRounds %v", k, i, got, want)
			}
		}
	}
	// Every after, not only the set's own elements: the smallest
	// element above it, or 0.
	for i := 1; i <= 130; i++ {
		for k := 1; k <= i; k++ {
			set := AwakeRounds(k, i)
			for after := 0; after <= i+1; after++ {
				want := 0
				for _, r := range set {
					if r > after {
						want = r
						break
					}
				}
				if got := NextAwakeRound(k, i, after); got != want {
					t.Fatalf("NextAwakeRound(%d, %d, %d) = %d, want %d (AwakeRounds %v)", k, i, after, got, want, set)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { NextAwakeRound(700, 1024, 512) }); allocs != 0 {
		t.Errorf("NextAwakeRound allocates %.0f times per call, want 0", allocs)
	}
}

func TestPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Depth(0) },
		func() { CommSet(0, 5) },
		func() { CommSet(6, 5) },
		func() { NextAwakeRound(0, 5, 0) },
		func() { NextAwakeRound(6, 5, 0) },
		func() { SharedRound(3, 3, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
