// Command awakemis runs any registered task — the paper's MIS
// algorithms, (Δ+1)-coloring, maximal matching — on a generated graph
// in the SLEEPING-CONGEST simulator and reports the complexity
// measures of the run, as text or as a machine-readable JSON Report.
//
// Usage:
//
//	awakemis -algo awake-mis -graph gnp -n 1024 -p 0.004 -seed 1
//	awakemis -algo coloring -json
//	awakemis -algo luby -n 1000000
//	awakemis -batch specs.json -parallel 4 > reports.json
//	awakemis -batch specs.json -server http://127.0.0.1:7600
//	awakemis -study study.json > result.json
//	awakemis -study study.json -server http://127.0.0.1:7600
//	awakemis -study study.json -server http://127.0.0.1:7600 -progress
//	awakemis -study study.json -csv > cells-and-fits.csv
//	awakemis -list
//
// The -batch file is a JSON array of specs, each {name, task, graph,
// options}; see the Spec type. Batch output is a JSON array of
// Reports in spec order; progress goes to stderr. Ctrl-C cancels
// in-flight simulations at their next round boundary.
//
// The -study file is one StudySpec: a declarative parameter-sweep
// grid (tasks × families × n-sweep × trials) that expands
// deterministically, aggregates each cell, and fits every metric's
// growth over the n-sweep. Output is the StudyResult artifact as JSON
// (or, with -csv, the cells and fits tables as CSV). The artifact is
// byte-identical at every -parallel and GOMAXPROCS setting and across
// local and -server execution.
//
// Each simulation sizes its engine's worker pool from GOMAXPROCS; set
// the GOMAXPROCS environment variable to change it. No run's output
// depends on it.
//
// With -server, the work is submitted to a running awakemisd daemon
// instead of executing locally: specs are resolved with the same
// per-spec seed derivation the local Runner uses, so reports carry
// the same results a local run produces (the daemon canonicalizes
// specs, so traces are dropped — they never affect results).
// Duplicate specs coalesce server-side, repeated
// submissions are served byte-identically from the daemon's report
// cache, and a re-submitted study therefore runs zero simulations.
// With -progress, server-side studies additionally render a live
// per-cell ticker on stderr — one line per cell state transition
// (running, done, cached, failed) plus aggregate run/round/ETA lines —
// fed by the daemon's SSE study stream (or its polled equivalent).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"awakemis"
	"awakemis/client"
)

func main() {
	var (
		algo     = flag.String("algo", "awake-mis", "task to run (see -list)")
		family   = flag.String("graph", "gnp", "graph family: "+strings.Join(awakemis.Families(), "|"))
		input    = flag.String("input", "", "read the graph from an edge-list file instead of generating")
		n        = flag.Int("n", 1024, "number of nodes")
		p        = flag.Float64("p", 0, "edge probability for gnp (0 = 4/n)")
		d        = flag.Int("d", 4, "degree for regular / attachments for powerlaw")
		r        = flag.Float64("r", 0.1, "radius for geometric")
		seed     = flag.Int64("seed", 1, "random seed")
		strict   = flag.Bool("strict", true, "enforce the CONGEST bandwidth bound")
		timeline = flag.Int("timeline", 0, "show an awake timeline of the k busiest nodes (text mode)")
		asJSON   = flag.Bool("json", false, "emit the run's Report as JSON")
		batch    = flag.String("batch", "", "run a JSON file of specs through the batch Runner")
		study    = flag.String("study", "", "run a StudySpec JSON file through the study engine")
		csvOut   = flag.Bool("csv", false, "study: emit the artifact's cells and fits tables as CSV instead of JSON")
		progress = flag.Bool("progress", false, "study: live per-cell progress ticker on stderr (needs -server)")
		parallel = flag.Int("parallel", 0, "batch/study: specs in flight at once (0 = one per CPU)")
		server   = flag.String("server", "", "batch/study: submit to a running awakemisd at this base URL instead of executing locally")
		list     = flag.Bool("list", false, "list tasks and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after a final GC) to this file at exit")
		runlog   = flag.String("runlog", "", "stream one JSON line per executed round to this file (\"-\" = stdout)")
		roundSum = flag.Bool("round-summary", false, "include the compact per-round summary block in the Report")
	)
	flag.Parse()

	startProfiles(*cpuProf, *memProf)
	defer flushProfiles()

	if *list {
		for _, t := range awakemis.Tasks() {
			fmt.Printf("%-16s %s\n", t.Name, t.Summary)
			fmt.Printf("%-16s   ids: %s\n", "", t.IDScheme)
		}
		return
	}

	// Ctrl-C cancels in-flight simulations at their next round boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *study != "" {
		if *batch != "" {
			fail(errors.New("-study and -batch are mutually exclusive"))
		}
		if *progress && *server == "" {
			fail(errors.New("-progress requires -server (local studies already report per-run progress)"))
		}
		runStudy(ctx, *study, *server, *parallel, *csvOut, *progress)
		return
	}
	if *csvOut {
		fail(errors.New("-csv requires -study"))
	}
	if *progress {
		fail(errors.New("-progress requires -study"))
	}
	if *batch != "" {
		if *server != "" {
			submitBatch(ctx, *batch, *server, *parallel, *seed)
		} else {
			runBatch(ctx, *batch, *parallel, *seed)
		}
		return
	}
	if *server != "" {
		fail(errors.New("-server requires -batch or -study (single runs execute locally)"))
	}

	var g *awakemis.Graph
	var err error
	if *input != "" {
		f, ferr := os.Open(*input)
		if ferr != nil {
			fail(ferr)
		}
		g, err = awakemis.ReadGraph(f)
		f.Close()
	} else {
		g, err = awakemis.Generate(*family, awakemis.GenOptions{N: *n, P: *p, Degree: *d, Radius: *r, Seed: *seed})
	}
	if err != nil {
		fail(err)
	}
	opt := awakemis.Options{
		Seed: *seed, Strict: *strict, Trace: *timeline > 0,
		RoundSummary: *roundSum,
	}
	var rl *runlogWriter
	if *runlog != "" {
		if rl, err = openRunlog(*runlog); err != nil {
			fail(err)
		}
		opt.Observer = rl
	}
	rep, err := awakemis.RunTaskContext(ctx, g, *algo, opt)
	if rl != nil {
		if cerr := rl.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fail(err)
	}

	if *asJSON {
		data, err := rep.JSON()
		if err != nil {
			fail(err)
		}
		fmt.Println(string(data))
		return
	}

	m := rep.Metrics
	fmt.Printf("graph            %v\n", g)
	fmt.Printf("task             %s\n", rep.Task)
	fmt.Printf("%s\n", outputLine(rep))
	fmt.Printf("max awake        %d    <- worst-case awake complexity\n", m.MaxAwake)
	fmt.Printf("avg awake        %.2f\n", m.AvgAwake)
	fmt.Printf("rounds           %d    (executed: %d; the rest everyone slept through)\n", m.Rounds, m.ExecutedRounds)
	fmt.Printf("messages         %d    (%d bits, max %d bits/message)\n", m.MessagesSent, m.BitsSent, m.MaxMessageBits)
	// Wall time goes to stderr: stdout stays byte-identical at every
	// GOMAXPROCS setting (the determinism contract verify flows diff it).
	fmt.Fprintf(os.Stderr, "(%.1fms on the %s engine)\n", rep.WallMS, rep.Engine)
	if *timeline > 0 {
		fmt.Println()
		fmt.Println(rep.TraceSummary())
		fmt.Printf("awake timeline of the %d busiest nodes:\n", *timeline)
		fmt.Print(rep.Timeline(*timeline, 100))
	}
}

// runlogWriter streams the run-log (-runlog): one JSON-encoded
// RoundStat per line, written from the engine goroutine through a
// buffered writer. The first write error sticks and is surfaced at
// close — the simulation itself is never interrupted by a full disk.
type runlogWriter struct {
	f   *os.File // nil for stdout
	buf *bufio.Writer
	enc *json.Encoder
	err error
}

func openRunlog(path string) (*runlogWriter, error) {
	l := &runlogWriter{}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		l.f, out = f, f
	}
	l.buf = bufio.NewWriterSize(out, 1<<16)
	l.enc = json.NewEncoder(l.buf)
	return l, nil
}

func (l *runlogWriter) ObserveRound(st awakemis.RoundStat) {
	if l.err == nil {
		l.err = l.enc.Encode(st)
	}
}

func (l *runlogWriter) close() error {
	err := l.err
	if ferr := l.buf.Flush(); err == nil {
		err = ferr
	}
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("runlog: %w", err)
	}
	return nil
}

// outputLine summarizes the task's output for the text report.
func outputLine(rep *awakemis.Report) string {
	switch out := rep.Output; {
	case out.InMIS != nil:
		size := 0
		for _, in := range out.InMIS {
			if in {
				size++
			}
		}
		return fmt.Sprintf("MIS size         %d", size)
	case out.Color != nil:
		colors := map[int]bool{}
		for _, c := range out.Color {
			colors[c] = true
		}
		return fmt.Sprintf("colors used      %d (Δ+1 bound: %d)", len(colors), rep.Graph.MaxDegree+1)
	case out.MatchedWith != nil:
		pairs := 0
		for v, w := range out.MatchedWith {
			if w > v {
				pairs++
			}
		}
		return fmt.Sprintf("matched pairs    %d", pairs)
	default:
		return "output           (empty)"
	}
}

// decodeFile decodes a -batch or -study file into v. It rejects
// unknown keys, so a misspelled option fails instead of silently
// taking its default, and any data after the one JSON value.
func decodeFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%s: trailing data after the JSON value", path)
	}
	return nil
}

// loadSpecs reads a -batch file: a JSON array of Specs.
func loadSpecs(path string) []awakemis.Spec {
	var specs []awakemis.Spec
	if err := decodeFile(path, &specs); err != nil {
		fail(err)
	}
	return specs
}

// runBatch executes a JSON spec file through the batch Runner:
// reports to stdout (a JSON array, in spec order), progress to stderr.
func runBatch(ctx context.Context, path string, parallel int, seed int64) {
	specs := loadSpecs(path)
	runner := &awakemis.Runner{
		Parallel: parallel,
		Seed:     seed,
		OnProgress: func(p awakemis.Progress) {
			status := "ok"
			if p.Err != nil {
				status = "FAILED: " + p.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %-24s %s\n", p.Done, p.Total, p.Spec.Name+" "+p.Spec.Task, status)
		},
	}
	reports, err := runner.RunBatch(ctx, specs)
	if errors.Is(err, context.Canceled) {
		flushProfiles()
		fmt.Fprintln(os.Stderr, "interrupted")
		os.Exit(130)
	}
	out, jerr := json.MarshalIndent(reports, "", "  ")
	if jerr != nil {
		fail(jerr)
	}
	fmt.Println(string(out))
	if err != nil {
		fail(err)
	}
}

// submitBatch runs a spec file against a remote awakemisd: every spec
// is resolved with the Runner's per-spec seed derivation (so remote
// reports carry the same results as a local -batch run),
// submitted through the typed client, and awaited. Output matches
// runBatch: a JSON array of Reports in spec order on stdout — the
// daemon serves the exact bytes it cached, so resubmissions are
// byte-identical — and progress on stderr.
func submitBatch(ctx context.Context, path, server string, parallel int, seed int64) {
	specs := loadSpecs(path)
	c := client.New(server, nil)
	if _, err := c.Health(ctx); err != nil {
		fail(err)
	}

	if parallel <= 0 {
		parallel = runtime.NumCPU()
	}
	resolver := &awakemis.Runner{Seed: seed}
	reports := make([]json.RawMessage, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			spec := resolver.Resolve(specs[i], i)
			job, err := c.Submit(ctx, spec)
			if err == nil && !job.Status.Terminal() {
				// WaitJob follows the daemon's SSE event stream (falling
				// back to polling), so completions arrive without poll lag.
				job, err = c.WaitJob(ctx, job.ID, nil)
			}
			status := ""
			switch {
			case err != nil:
			case job.Status == client.JobDone:
				reports[i] = job.Report
				if job.Cached {
					status = " (cached)"
				}
			case job.Status == client.JobFailed:
				err = errors.New(job.Error)
			default:
				err = fmt.Errorf("job %s was %s", job.ID, job.Status)
			}
			errs[i] = err
			mu.Lock()
			done++
			line := "ok" + status
			if err != nil {
				line = "FAILED: " + err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %-24s %s\n", done, len(specs), spec.Name+" "+spec.Task, line)
			mu.Unlock()
		}(i)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		flushProfiles()
		fmt.Fprintln(os.Stderr, "interrupted")
		os.Exit(130)
	}
	out, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	failed := 0
	var first error
	for _, err := range errs {
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	if failed > 0 {
		fail(fmt.Errorf("%d of %d specs failed (first: %w)", failed, len(specs), first))
	}
}

// runStudy executes a StudySpec file — locally through the streaming
// StudyRunner, or server-side via POST /v1/studies when -server is
// set — and prints the StudyResult artifact to stdout (JSON, or the
// cells and fits CSV tables with -csv, separated by a blank line).
// Both paths print byte-identical artifacts for the same spec: the
// daemon assembles its result through the same accumulator, and the
// CLI re-renders the decoded artifact with the same canonical
// marshaling.
func runStudy(ctx context.Context, path, server string, parallel int, csvOut, progress bool) {
	var ss awakemis.StudySpec
	if err := decodeFile(path, &ss); err != nil {
		fail(err)
	}

	var res *awakemis.StudyResult
	if server != "" {
		res = submitStudy(ctx, ss, server, progress)
	} else {
		runner := &awakemis.StudyRunner{
			Parallel: parallel,
			OnProgress: func(p awakemis.Progress) {
				status := "ok"
				if p.Err != nil {
					status = "FAILED: " + p.Err.Error()
				}
				fmt.Fprintf(os.Stderr, "[%d/%d] %-32s %s\n", p.Done, p.Total, p.Spec.Name, status)
			},
		}
		var err error
		res, err = runner.Run(ctx, ss)
		if errors.Is(err, context.Canceled) {
			flushProfiles()
			fmt.Fprintln(os.Stderr, "interrupted")
			os.Exit(130)
		}
		if err != nil {
			fail(err)
		}
	}

	if csvOut {
		fmt.Print(res.CellsCSV())
		fmt.Println()
		fmt.Print(res.FitsCSV())
		return
	}
	out, err := res.JSON()
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

// submitStudy runs the study on a remote awakemisd, with progress on
// stderr as sub-runs finish — coarse run-count lines by default, a
// per-cell ticker with -progress.
func submitStudy(ctx context.Context, ss awakemis.StudySpec, server string, progress bool) *awakemis.StudyResult {
	c := client.New(server, nil)
	if _, err := c.Health(ctx); err != nil {
		fail(err)
	}
	st, err := c.SubmitStudy(ctx, ss)
	if err != nil {
		fail(err)
	}
	id := st.ID // survives WaitStudy overwriting st (nil on poll errors)
	fmt.Fprintf(os.Stderr, "study %s: %d runs\n", id, st.Total)
	var onUpdate func(*client.Study)
	if progress {
		onUpdate = (&studyTicker{}).observe
	} else {
		lastDone := -1
		onUpdate = func(s *client.Study) {
			if s.Done != lastDone {
				fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", s.Done, s.Total, s.Status)
				lastDone = s.Done
			}
		}
	}
	st, err = c.WaitStudy(ctx, id, onUpdate)
	if ctx.Err() != nil || errors.Is(err, context.Canceled) {
		// Best effort: release the daemon-side sub-runs we no longer want.
		cancelCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		c.CancelStudy(cancelCtx, id)
		flushProfiles()
		fmt.Fprintln(os.Stderr, "interrupted")
		os.Exit(130)
	}
	if err != nil {
		fail(err)
	}
	switch st.Status {
	case client.JobDone:
		res, err := st.DecodeResult()
		if err != nil {
			fail(err)
		}
		return res
	case client.JobFailed:
		fail(fmt.Errorf("study %s failed: %s", st.ID, st.Error))
	default:
		fail(fmt.Errorf("study %s was %s", st.ID, st.Status))
	}
	return nil
}

// studyTicker renders -progress lines on stderr from the study's live
// views (SSE frames, or polled states on fallback): one line per cell
// state transition, plus an aggregate line whenever the run counters
// move. Cells never transition back into "queued", so that state is
// only ever the silent starting point.
type studyTicker struct {
	states  []client.CellState
	lastAgg string
}

func (t *studyTicker) observe(s *client.Study) {
	p := s.Progress
	if p == nil {
		// Pre-progress daemon: degrade to the coarse run counter.
		if agg := fmt.Sprintf("[%d/%d] %s", s.Done, s.Total, s.Status); agg != t.lastAgg {
			fmt.Fprintln(os.Stderr, agg)
			t.lastAgg = agg
		}
		return
	}
	if t.states == nil {
		t.states = make([]client.CellState, len(p.Cells))
	}
	for i, c := range p.Cells {
		if i >= len(t.states) || c.State == t.states[i] || c.State == "queued" {
			continue
		}
		t.states[i] = c.State
		detail := fmt.Sprintf("%d/%d trials", c.Done, c.Trials)
		if c.Cached > 0 {
			detail += fmt.Sprintf(", %d cached", c.Cached)
		}
		fmt.Fprintf(os.Stderr, "  cell %2d %s/%s n=%-8d %-9s %-8s (%s)\n",
			c.Index, c.Task, c.Family, c.N, c.Engine, c.State, detail)
	}
	agg := fmt.Sprintf("[%d/%d runs] %d running, %d done, %d cached",
		p.RunsDone, s.Total, p.CellsRunning, p.CellsDone, p.CellsCached)
	if p.CellsFailed > 0 {
		agg += fmt.Sprintf(", %d failed", p.CellsFailed)
	}
	if p.ExecutedRounds > 0 {
		agg += fmt.Sprintf(" · %d rounds", p.ExecutedRounds)
	}
	if p.ETAMS > 0 {
		agg += fmt.Sprintf(" · eta %.1fs", p.ETAMS/1000)
	}
	if agg != t.lastAgg {
		fmt.Fprintln(os.Stderr, agg)
		t.lastAgg = agg
	}
}

// profiles holds the optional pprof outputs. CPU profiling covers
// everything from flag parsing to exit (graph construction included —
// at n=10⁷ the build is a visible fraction of the run); the heap
// profile is written after a final GC, so it reports live bytes, the
// number that matters for "how big a graph fits".
var profiles struct {
	cpu     *os.File
	memPath string
	flushed bool
}

func startProfiles(cpuPath, memPath string) {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fail(err)
		}
		profiles.cpu = f
	}
	profiles.memPath = memPath
}

// flushProfiles finalizes both profiles; it runs on normal exit and
// from fail, whichever comes first.
func flushProfiles() {
	if profiles.flushed {
		return
	}
	profiles.flushed = true
	if profiles.cpu != nil {
		pprof.StopCPUProfile()
		if err := profiles.cpu.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
	if profiles.memPath != "" {
		f, err := os.Create(profiles.memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		f.Close()
	}
}

func fail(err error) {
	flushProfiles()
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
