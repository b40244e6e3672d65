package awakemis

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestRunAllAlgorithmsProduceValidMIS(t *testing.T) {
	graphs := map[string]*Graph{
		"gnp":   GNP(80, 0.05, 1),
		"cycle": Cycle(30),
		"tree":  RandomTree(40, 2),
		"geo":   RandomGeometric(60, 0.2, 3),
	}
	for gname, g := range graphs {
		for _, algo := range Algorithms() {
			t.Run(gname+"/"+string(algo), func(t *testing.T) {
				res, err := RunMIS(g, algo, Options{Seed: 7, Strict: true})
				if err != nil {
					t.Fatal(err)
				}
				if err := Verify(g, res.InMIS); err != nil {
					t.Fatal(err)
				}
				if res.Metrics.MaxAwake < 1 || res.Metrics.Rounds < 1 {
					t.Errorf("suspicious metrics: %+v", res.Metrics)
				}
				if len(res.Metrics.AwakePerNode) != g.N() {
					t.Error("per-node metrics wrong length")
				}
			})
		}
	}
}

// TestAwakeMISAtSaturatedIDSpace runs Awake-MIS under the network
// bound N = 2²¹, the first N whose default ID space N³ passes int64's
// range and saturates instead of wrapping, with the CONGEST bound
// enforced, and verifies the MIS.
func TestAwakeMISAtSaturatedIDSpace(t *testing.T) {
	g := GNP(512, 4.0/512, 11)
	res, err := RunMIS(g, AwakeMIS, Options{Seed: 3, N: 1 << 21, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.InMIS); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	if _, err := RunMIS(Cycle(4), Algorithm("bogus"), Options{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAwakeMISBeatsLubyGrowth(t *testing.T) {
	// The headline claim at the API level: as n grows 16x, Luby's awake
	// complexity grows log-like while Awake-MIS stays essentially flat.
	small, large := 64, 1024
	awake := func(algo Algorithm, n int) int64 {
		g := GNP(n, 4/float64(n), int64(n))
		res, err := RunMIS(g, algo, Options{Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.MaxAwake
	}
	lubyGrowth := float64(awake(Luby, large)) / float64(awake(Luby, small))
	oursGrowth := float64(awake(AwakeMIS, large)) / float64(awake(AwakeMIS, small))
	if oursGrowth >= lubyGrowth {
		t.Errorf("awake-mis growth %.2fx not below luby growth %.2fx", oursGrowth, lubyGrowth)
	}
	if oursGrowth > 1.4 {
		t.Errorf("awake-mis growth %.2fx not log log-flat", oursGrowth)
	}
}

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(3, [][2]int{{0, 0}}); err == nil {
		t.Error("self-loop accepted")
	}
	g, err := NewGraph(3, [][2]int{{0, 1}, {1, 2}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Neighbors(1) = %v", got)
	}
}

func TestGraphAccessors(t *testing.T) {
	g := Grid(3, 3)
	if g.N() != 9 || g.M() != 12 || g.MaxDegree() != 4 {
		t.Errorf("grid stats wrong: %v", g)
	}
	if !g.IsConnected() {
		t.Error("grid should be connected")
	}
	if len(g.Components()) != 1 {
		t.Error("grid has one component")
	}
	if len(g.Edges()) != 12 {
		t.Error("edge list wrong")
	}
	if !strings.Contains(g.String(), "n=9") {
		t.Errorf("String() = %s", g)
	}
	if Star(5).Degree(0) != 4 {
		t.Error("star center degree wrong")
	}
}

func TestGeneratorsProduceExpectedSizes(t *testing.T) {
	tests := []struct {
		g    *Graph
		n, m int
	}{
		{Cycle(5), 5, 5},
		{Path(5), 5, 4},
		{Complete(5), 5, 10},
		{Star(5), 5, 4},
		{RandomTree(17, 1), 17, 16},
	}
	for _, tt := range tests {
		if tt.g.N() != tt.n || tt.g.M() != tt.m {
			t.Errorf("%v: want n=%d m=%d", tt.g, tt.n, tt.m)
		}
	}
	if g := PreferentialAttachment(50, 2, 4); g.N() != 50 || !g.IsConnected() {
		t.Error("preferential attachment wrong")
	}
	if g := RandomRegular(30, 3, 5); g.MaxDegree() > 3 {
		t.Error("regular graph exceeds degree")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g := GNP(50, 0.08, 9)
	a, err := RunMIS(g, AwakeMIS, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMIS(g, AwakeMIS, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.InMIS {
		if a.InMIS[v] != b.InMIS[v] {
			t.Fatalf("replay diverged at %d", v)
		}
	}
	if a.Metrics.Rounds != b.Metrics.Rounds || a.Metrics.BitsSent != b.Metrics.BitsSent {
		t.Error("metrics diverged")
	}
}

func TestQuickFacadeAlwaysValid(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%30) + 2
		g := GNP(n, 0.2, seed)
		res, err := RunMIS(g, AwakeMIS, Options{Seed: seed})
		if err != nil {
			return false
		}
		return Verify(g, res.InMIS) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestAwakeQuantilesNearestRank checks the histogram quantiles against
// the nearest-rank rule on a sorted copy, sorted[⌈q·n⌉-1], over small
// and tied counter sets.
func TestAwakeQuantilesNearestRank(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 7, 10, 99, 100, 101, 1000} {
		for _, spread := range []int64{1, 3, 50} {
			per := make([]int64, n)
			maxAwake := int64(0)
			for v := range per {
				per[v] = r.Int63n(spread)
				maxAwake = max(maxAwake, per[v])
			}
			sorted := slices.Sorted(slices.Values(per))
			rank := func(p float64) int64 {
				return sorted[max(int(math.Ceil(p*float64(n)))-1, 0)]
			}
			want := AwakeQuantiles{Min: sorted[0], P25: rank(0.25), P50: rank(0.50),
				P75: rank(0.75), P90: rank(0.90), P99: rank(0.99)}
			if got := awakeQuantiles(per, maxAwake); got != want {
				t.Errorf("n=%d spread=%d: got %+v, want %+v", n, spread, got, want)
			}
		}
	}
}
