package awakemis_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"awakemis"
)

// batchSpecs covers every task, mixed explicit and derived seeds, and
// several graph families.
func batchSpecs() []awakemis.Spec {
	return []awakemis.Spec{
		{Name: "headline", Task: "awake-mis", Graph: awakemis.GraphSpec{Family: "gnp", N: 64, P: 0.06}, Options: awakemis.Options{Seed: 3, Strict: true}},
		{Task: "awake-mis-round", Graph: awakemis.GraphSpec{Family: "gnp", N: 48, P: 0.08, Seed: 5}},
		{Name: "baseline", Task: "luby", Graph: awakemis.GraphSpec{Family: "cycle", N: 51}},
		{Task: "naive-greedy", Graph: awakemis.GraphSpec{Family: "grid", N: 49}, Options: awakemis.Options{Seed: 8}},
		{Task: "vt-mis", Graph: awakemis.GraphSpec{Family: "tree", N: 40}},
		{Task: "ldt-mis", Graph: awakemis.GraphSpec{Family: "gnp", N: 36, P: 0.1}},
		{Task: "coloring", Graph: awakemis.GraphSpec{Family: "geometric", N: 50, Radius: 0.2}},
		{Task: "matching", Graph: awakemis.GraphSpec{Family: "gnp", N: 55, P: 0.07}, Options: awakemis.Options{Seed: 2, Engine: awakemis.EngineStepped}},
	}
}

// canon strips the one nondeterministic report field (wall time).
func canon(rep *awakemis.Report) awakemis.Report {
	c := *rep
	c.WallMS = 0
	return c
}

func TestRunBatchBitIdenticalToSequential(t *testing.T) {
	specs := batchSpecs()
	const rootSeed = 42

	// Reference: each resolved spec run sequentially, one at a time.
	seq := make([]*awakemis.Report, len(specs))
	ref := &awakemis.Runner{Seed: rootSeed}
	for i, spec := range specs {
		rep, err := awakemis.Run(context.Background(), ref.Resolve(spec, i))
		if err != nil {
			t.Fatalf("sequential spec %d: %v", i, err)
		}
		seq[i] = rep
	}

	for _, parallel := range []int{1, 2, 8} {
		r := &awakemis.Runner{Parallel: parallel, Seed: rootSeed}
		reports, err := r.RunBatch(context.Background(), specs)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i := range specs {
			if reports[i] == nil {
				t.Fatalf("parallel=%d: report %d missing", parallel, i)
			}
			if got, want := canon(reports[i]), canon(seq[i]); !reflect.DeepEqual(got, want) {
				t.Errorf("parallel=%d spec %d (%s): batch report diverges from sequential:\n%+v\nvs\n%+v",
					parallel, i, specs[i].Task, got, want)
			}
		}
	}
}

func TestRunBatchSharedWorkerBudget(t *testing.T) {
	// Four specs sharing one CPU must produce the same reports as one
	// spec at a time on sixteen.
	specs := batchSpecs()[:4]
	a := &awakemis.Runner{Parallel: 4, Seed: 1}
	b := &awakemis.Runner{Parallel: 1, Seed: 1}
	var ra, rb []*awakemis.Report
	var errA, errB error
	atGOMAXPROCS(1, func() { ra, errA = a.RunBatch(context.Background(), specs) })
	atGOMAXPROCS(16, func() { rb, errB = b.RunBatch(context.Background(), specs) })
	if errA != nil {
		t.Fatal(errA)
	}
	if errB != nil {
		t.Fatal(errB)
	}
	for i := range specs {
		if !reflect.DeepEqual(canon(ra[i]), canon(rb[i])) {
			t.Errorf("spec %d: worker budget changed the report", i)
		}
	}
}

func TestRunBatchProgress(t *testing.T) {
	specs := batchSpecs()[:5]
	var calls []awakemis.Progress
	r := &awakemis.Runner{
		Parallel: 3, Seed: 7,
		OnProgress: func(p awakemis.Progress) { calls = append(calls, p) },
	}
	if _, err := r.RunBatch(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(specs) {
		t.Fatalf("%d progress callbacks for %d specs", len(calls), len(specs))
	}
	seenIdx := map[int]bool{}
	for i, p := range calls {
		if p.Done != i+1 || p.Total != len(specs) {
			t.Errorf("callback %d: Done/Total = %d/%d", i, p.Done, p.Total)
		}
		if p.Err != nil || p.Report == nil {
			t.Errorf("callback %d: unexpected failure %v", i, p.Err)
		}
		seenIdx[p.Index] = true
	}
	if len(seenIdx) != len(specs) {
		t.Error("progress callbacks skipped a spec index")
	}
}

func TestRunBatchIsolatesFailures(t *testing.T) {
	specs := []awakemis.Spec{
		{Task: "luby", Graph: awakemis.GraphSpec{Family: "cycle", N: 30}, Options: awakemis.Options{Seed: 1}},
		{Task: "no-such-task", Graph: awakemis.GraphSpec{Family: "cycle", N: 30}, Options: awakemis.Options{Seed: 1}},
		{Task: "vt-mis", Graph: awakemis.GraphSpec{Family: "no-such-family", N: 30}, Options: awakemis.Options{Seed: 1}},
		{Task: "coloring", Graph: awakemis.GraphSpec{Family: "cycle", N: 30}, Options: awakemis.Options{Seed: 1}},
	}
	r := &awakemis.Runner{Parallel: 2}
	reports, err := r.RunBatch(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "2 of 4 specs failed") {
		t.Fatalf("err = %v, want a 2-of-4 summary", err)
	}
	if reports[0] == nil || reports[3] == nil {
		t.Error("healthy specs should still report")
	}
	if reports[1] != nil || reports[2] != nil {
		t.Error("failed specs should have nil reports")
	}
}

func TestRunBatchCancellation(t *testing.T) {
	// Many slow specs, cancelled almost immediately: RunBatch must
	// return ctx.Err() promptly rather than finish the batch.
	specs := make([]awakemis.Spec, 16)
	for i := range specs {
		specs[i] = awakemis.Spec{
			Task:    "naive-greedy",
			Graph:   awakemis.GraphSpec{Family: "cycle", N: 3000},
			Options: awakemis.Options{Seed: int64(i + 1)},
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var fired atomic.Bool
	go func() {
		time.Sleep(5 * time.Millisecond)
		fired.Store(true)
		cancel()
	}()
	start := time.Now()
	_, err := (&awakemis.Runner{Parallel: 2}).RunBatch(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !fired.Load() {
		t.Fatal("batch finished before cancellation fired; enlarge the workload")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}
