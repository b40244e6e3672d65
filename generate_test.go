package awakemis

import "testing"

func TestGenerateAllFamilies(t *testing.T) {
	for _, fam := range Families() {
		t.Run(fam, func(t *testing.T) {
			g, err := Generate(fam, GenOptions{N: 40, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if g.N() < 40 {
				t.Errorf("family %s: n = %d, want >= 40", fam, g.N())
			}
			// Every generated graph is a usable algorithm input.
			res, err := RunMIS(g, Luby, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(g, res.InMIS); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGenerateDefaults(t *testing.T) {
	g, err := Generate("gnp", GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1024 {
		t.Errorf("default n = %d, want 1024", g.N())
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate("klein-bottle", GenOptions{N: 10}); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := Generate("regular", GenOptions{N: 3, Degree: 5}); err == nil {
		t.Error("regular with d >= n accepted")
	}
}

func TestGenerateCaseInsensitive(t *testing.T) {
	if _, err := Generate("CYCLE", GenOptions{N: 5}); err != nil {
		t.Errorf("uppercase family rejected: %v", err)
	}
}

func TestGenerateRoundsUpStructured(t *testing.T) {
	// hypercube/torus/grid round n up to the nearest valid size.
	g, err := Generate("hypercube", GenOptions{N: 100})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 128 {
		t.Errorf("hypercube n = %d, want 128", g.N())
	}
	g, err = Generate("torus", GenOptions{N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 {
		t.Errorf("torus n = %d, want 16", g.N())
	}
}

// TestPlanGraphLimits pins planGraph's bounds at each family's edge-cap
// boundary (2³⁰−1 edges) without building a graph: the largest input
// that fits is accepted and the next one is rejected.
func TestPlanGraphLimits(t *testing.T) {
	for _, tc := range []struct {
		family string
		o      GenOptions
		ok     bool
	}{
		{"complete", GenOptions{N: 46341}, true}, // 1,073,720,970 edges
		{"complete", GenOptions{N: 46342}, false},
		{"gnp", GenOptions{N: 46341, P: 1}, true},
		{"gnp", GenOptions{N: 46342, P: 1}, false},
		{"gnp", GenOptions{N: 1 << 28}, true}, // 4/n: 2(n−1) edges expected
		{"gnp", GenOptions{N: 1 << 29}, false},
		{"cycle", GenOptions{N: 1<<30 - 1}, true},
		{"cycle", GenOptions{N: 1 << 30}, false},
		{"path", GenOptions{N: 1 << 30}, true},
		{"star", GenOptions{N: 1<<30 + 1}, false},
		{"tree", GenOptions{N: 1<<30 + 1}, false},
		{"grid", GenOptions{N: 23170 * 23170}, true},
		{"grid", GenOptions{N: 23170*23170 + 1}, false},
		{"torus", GenOptions{N: 23170 * 23170}, true},
		{"torus", GenOptions{N: 23171 * 23171}, false},
		{"hypercube", GenOptions{N: 1 << 26}, true},
		{"hypercube", GenOptions{N: 1<<26 + 1}, false},
		{"regular", GenOptions{N: 1 << 28, Degree: 7}, true},
		{"regular", GenOptions{N: 1 << 28, Degree: 8}, false},
		{"powerlaw", GenOptions{N: 1 << 28, Degree: 3}, true},
		{"powerlaw", GenOptions{N: 1 << 28}, false}, // default 4 attachments
		{"powerlaw", GenOptions{N: 10, Degree: 1 << 40}, false},
		{"geometric", GenOptions{N: 1 << 14}, true},
		{"geometric", GenOptions{N: 1 << 20}, false}, // ~1.6·10¹⁰ edges at r = 0.1
		{"geometric", GenOptions{N: 46400, Radius: 2}, false},
		{"cycle", GenOptions{N: 1<<31 - 1}, false},
	} {
		_, _, err := planGraph(tc.family, tc.o)
		if (err == nil) != tc.ok {
			t.Errorf("%s %+v: err = %v, want ok=%v", tc.family, tc.o, err, tc.ok)
		}
	}
}
