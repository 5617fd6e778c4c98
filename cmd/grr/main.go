// Command grr is the greedy printed circuit board router of the paper.
// It routes a board design (stringing it on the fly, or taking a
// pre-strung .con file), prints a Table 1-style result row, and can emit
// the routed result and SVG figures.
//
// Usage:
//
//	grr -design coproc.brd -routes coproc.rte -svg-dir figs/
//	grr -design coproc.brd -conns coproc.con
//	grr -design coproc.brd -time-budget 30s -node-budget 50000
//	grr -design coproc.brd -checkpoint run.snap -checkpoint-every 64
//	grr -resume run.snap   # continue a crashed or aborted run
//	grr -table1            # regenerate the paper's Table 1 end to end
//	grr -table1 -scale 2   # quick, reduced-size variant
//
// Exit codes:
//
//	0  every connection routed and (with -check) verified; for -resume,
//	   the resumed run completed the board
//	1  internal error: bad input, I/O failure, failed verification, a
//	   corrupt or truncated -resume snapshot, or a -checkpoint snapshot
//	   that could not be written
//	2  usage error
//	3  incomplete but consistent: the route ran out of budget, was
//	   interrupted, or left connections unrouted, yet the board state
//	   is valid and any requested artifacts were still written (a
//	   -checkpoint run can be continued with -resume)
//
// SIGINT/SIGTERM cancel the route at its next checkpoint; the partial
// result is reported and artifacts are written, exactly as when a
// -time-budget expires. With -checkpoint the run is additionally
// resumable: because the router is deterministic, -resume finishes with
// the exact board an uninterrupted run would have produced. A second
// SIGINT/SIGTERM forces an immediate exit (code 130) — the escape hatch
// for a run wedged somewhere the soft cancel is never polled.
//
// -resume replays the remainder of the route with the snapshot's own
// algorithmic options; explicitly passing a conflicting -radius, -sort,
// -cost, -bidirectional, -engine or -node-budget is an error (exit 1),
// because mixed options would silently produce a board neither run would
// have built.
//
// -edits applies a design-delta script (block / remove-net / add-conn
// lines) after the base route and routes the edited design from
// scratch:
//
//	grr -design coproc.brd -edits rev2.edits
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/board"
	"repro/internal/boardio"
	"repro/internal/core"
	"repro/internal/drc"
	"repro/internal/experiment"
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/photoplot"
	"repro/internal/render"
	"repro/internal/stats"
	"repro/internal/stringer"
	"repro/internal/timing"
	"repro/internal/tuning"
	"repro/internal/verify"
)

const (
	exitOK         = 0
	exitInternal   = 1
	exitUsage      = 2
	exitIncomplete = 3
	exitForced     = 130
)

func main() { os.Exit(run()) }

func run() int {
	var (
		design = flag.String("design", "", "input .brd design")
		connsF = flag.String("conns", "", "pre-strung .con connection list (default: string the design's nets)")
		routes = flag.String("routes", "", "write routed output (.rte) here")
		svgDir = flag.String("svg-dir", "", "write figure SVGs (placement, problem, layers, routes) here")
		table1 = flag.Bool("table1", false, "route every Table 1 board and print the table")
		scale  = flag.Int("scale", 1, "with -table1: shrink boards by this factor")
		jobs   = flag.Int("j", 1, "with -table1: boards routed concurrently (0 = one worker per CPU, capped at the board count)")
		check  = flag.Bool("check", true, "verify connectivity of every routed connection")
		report = flag.Bool("report", false, "print the timing report and the 5 most critical nets")
		runDRC = flag.Bool("drc", false, "run the design-rule checker on the routed board")
		gerber = flag.String("gerber-dir", "", "write RS-274X photoplots and the drill file here")
		trees  = flag.Bool("trees", false, "string TTL nets as minimum spanning trees instead of chains")
		congst = flag.Bool("congestion", false, "print the channel-occupancy heatmap after routing")

		radius = flag.Int("radius", 1, "orthogonal movement allowance in via units (Section 8.1)")
		sort   = flag.Bool("sort", true, "sort connections before routing (Section 6)")
		cost   = flag.String("cost", "dist*hops", "Lee cost function: dist*hops, plus-one, distance")
		bidi   = flag.Bool("bidirectional", true, "spread Lee wavefronts from both ends")
		engine = flag.String("engine", "classic", "Lee search engine: classic, goal (goal-oriented lower-bound priorities)")

		editsF = flag.String("edits", "", "after routing, apply this edit script (block/remove-net/add-conn lines) and route the edited design")

		timeBudget = flag.Duration("time-budget", 0, "stop routing after this much wall-clock time (0 = none); partial results exit 3")
		nodeBudget = flag.Int("node-budget", 0, "fail any connection whose search expands more than this many nodes (0 = none)")
		paranoid   = flag.Bool("paranoid", false, "audit board invariants between routing passes; a broken invariant aborts with exit 1")

		checkpoint = flag.String("checkpoint", "", "periodically save a resumable snapshot here (atomic rename; survives SIGKILL)")
		ckEvery    = flag.Int("checkpoint-every", 64, "with -checkpoint: snapshot every N routing attempts")
		resume     = flag.String("resume", "", "resume an interrupted run from this snapshot (written by -checkpoint)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile here")
		memprofile = flag.String("memprofile", "", "write a heap profile here on exit")
		dumpStats  = flag.Bool("stats", false, "dump the metrics registry (search effort, phase timings) to stderr after the run")

		hangAt = flag.Int("fault-hang-at", 0, "fault injection: wedge the run inside the Nth segment placement (testing only)")
	)
	flag.Parse()
	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	// First signal: soft-cancel the route (it stops at the next
	// connection boundary and still writes artifacts). Second signal:
	// the run is evidently stuck somewhere that never polls the cancel
	// flag — get out now.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		got := <-sig
		fmt.Fprintf(os.Stderr, "grr: %v: stopping at the next connection boundary (again to force exit)\n", got)
		cancel()
		got = <-sig
		fmt.Fprintf(os.Stderr, "grr: %v again: forcing exit\n", got)
		os.Exit(exitForced)
	}()

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return fail(err)
	}
	defer stopProfiles()

	opts := core.DefaultOptions()
	if *dumpStats {
		// The registry aggregates across every board this invocation
		// routes (one, or the whole -table1 sweep) and dumps on the way
		// out — the run() int shape exists so defers like this fire
		// before the process exits.
		reg := obs.NewRegistry()
		opts.Metrics = reg
		defer func() {
			fmt.Fprintln(os.Stderr, "grr: metrics registry:")
			reg.DumpTable(os.Stderr)
		}()
	}
	opts.Radius = *radius
	opts.Sort = *sort
	opts.Bidirectional = *bidi
	opts.TimeBudget = *timeBudget
	opts.NodeBudget = *nodeBudget
	opts.Paranoid = *paranoid
	switch *cost {
	case "dist*hops":
		opts.Cost = core.CostDistTimesHops
	case "plus-one":
		opts.Cost = core.CostPlusOne
	case "distance":
		opts.Cost = core.CostDistance
	default:
		fmt.Fprintf(os.Stderr, "grr: unknown cost function %q\n", *cost)
		return exitUsage
	}
	switch *engine {
	case "classic":
		opts.Engine = core.EngineClassic
	case "goal":
		opts.Engine = core.EngineGoal
	default:
		fmt.Fprintf(os.Stderr, "grr: unknown engine %q\n", *engine)
		return exitUsage
	}

	cfg := singleConfig{
		design: *design, connsF: *connsF, routes: *routes, svgDir: *svgDir,
		gerber: *gerber, trees: *trees, check: *check, report: *report,
		runDRC: *runDRC, congst: *congst,
		checkpoint: *checkpoint, ckEvery: *ckEvery,
		hangAt: *hangAt,
		edits:  *editsF,
	}
	if *editsF != "" && (*checkpoint != "" || *resume != "") {
		fmt.Fprintln(os.Stderr, "grr: -edits excludes -checkpoint and -resume")
		return exitUsage
	}
	if *resume != "" {
		if *table1 || *design != "" {
			fmt.Fprintln(os.Stderr, "grr: -resume excludes -design and -table1")
			return exitUsage
		}
		return runResume(ctx, cfg, *resume, opts, explicit)
	}
	if *table1 {
		return runTable1(ctx, *scale, opts, *jobs)
	}
	if *design == "" {
		fmt.Fprintln(os.Stderr, "grr: -design, -table1 or -resume is required")
		return exitUsage
	}
	return runSingle(ctx, cfg, opts)
}

// runTable1 sweeps the Table 1 boards. Boards that failed outright are
// reported to stderr and drop out of the table; boards the context or a
// budget cut short stay in the table with their partial counts.
func runTable1(ctx context.Context, scale int, opts core.Options, jobs int) int {
	rows, err := experiment.Table1ParallelContext(ctx, scale, opts, jobs)

	printable := rows[:0:0]
	incomplete := 0
	for _, r := range rows {
		if r.Board == "" {
			continue // failed board; its error is in err
		}
		printable = append(printable, r)
		if r.Routed < r.Conns {
			incomplete++
		}
	}
	fmt.Print(stats.FormatTable(printable))

	if err != nil {
		fmt.Fprintln(os.Stderr, "grr:", err)
		return exitInternal
	}
	if incomplete > 0 {
		fmt.Fprintf(os.Stderr, "grr: %d board(s) incomplete\n", incomplete)
		return exitIncomplete
	}
	return exitOK
}

type singleConfig struct {
	design, connsF, routes, svgDir, gerber string
	trees, check, report, runDRC, congst   bool
	checkpoint                             string
	ckEvery                                int
	hangAt                                 int
	edits                                  string
}

// attachCheckpointSink wires a periodic snapshot writer into opts. The
// serialized options are a copy taken now, before core.New: they are the
// algorithmic inputs a -resume run needs to replay the remainder of the
// route deterministically.
func attachCheckpointSink(opts *core.Options, path string, every int, d *netlist.Design, conns []core.Connection) {
	// A previous run that crashed mid-checkpoint (between create and
	// rename) leaves path.tmp behind; the snapshot itself is intact, the
	// droppings are just noise — sweep them before writing fresh ones.
	os.Remove(path + ".tmp")
	opts.CheckpointEvery = every
	serial := *opts
	serial.CheckpointSink = nil
	opts.CheckpointSink = func(cp *core.Checkpoint) error {
		return boardio.SaveSnapshot(path, &boardio.Snapshot{
			Design: d, Conns: conns, Opts: serial, Check: cp,
		})
	}
}

// runSingle routes one design. Artifacts (.rte, SVGs, photoplots) are
// written even when the route is aborted or incomplete — a partial
// result the operator can inspect beats an empty directory.
func runSingle(ctx context.Context, cfg singleConfig, opts core.Options) int {
	d, err := readDesign(cfg.design)
	if err != nil {
		return fail(err)
	}

	b, err := board.New(d.GridConfig())
	if err != nil {
		return fail(err)
	}
	if err := d.PlacePins(b); err != nil {
		return fail(err)
	}

	var conns []core.Connection
	if cfg.connsF != "" {
		cf, err := os.Open(cfg.connsF)
		if err != nil {
			return fail(err)
		}
		conns, err = boardio.ReadConnections(cf)
		cf.Close()
		if err != nil {
			return fail(err)
		}
	} else {
		sr, err := stringer.String(d, stringer.Options{Trees: cfg.trees})
		if err != nil {
			return fail(err)
		}
		conns = sr.Conns
	}

	if cfg.edits != "" {
		return runWithEdits(ctx, cfg, d, b, conns, opts)
	}
	if cfg.checkpoint != "" {
		attachCheckpointSink(&opts, cfg.checkpoint, cfg.ckEvery, d, conns)
	}
	if cfg.hangAt > 0 {
		// A blocker nobody releases: the run wedges inside a board
		// mutation, beyond the reach of the soft cancel. Exists to test
		// the second-signal escape hatch.
		b.Interpose(faultinject.BlockAt(cfg.hangAt))
	}
	r, err := core.New(b, conns, opts)
	if err != nil {
		return fail(err)
	}
	return routeAndReport(ctx, cfg, d, b, conns, r)
}

// runWithEdits routes the base design, then routes the edited design
// from scratch. The edited problem comes from boardio.EditDesign, as it
// does in grrd, and a script it refuses stops the run before the base
// route. Reports and artifacts describe the edited board.
func runWithEdits(ctx context.Context, cfg singleConfig, d *netlist.Design, b *board.Board, conns []core.Connection, opts core.Options) int {
	ef, err := os.Open(cfg.edits)
	if err != nil {
		return fail(err)
	}
	edits, err := boardio.ReadEdits(ef)
	ef.Close()
	if err != nil {
		return fail(err)
	}
	d2, b2, conns2, err := boardio.EditDesign(d, conns, edits)
	if err != nil {
		return fail(err)
	}

	r, err := core.New(b, conns, opts)
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	res := r.RouteContext(ctx)
	fmt.Println("base route:")
	fmt.Println(stats.Header())
	fmt.Println(stats.NewRow(d, b, conns, res, time.Since(start)).Format())
	if res.Aborted != core.AbortNone {
		fmt.Fprintf(os.Stderr, "grr: base route aborted (%s); not applying edits\n", res.Aborted)
		if res.Invariant != nil {
			fmt.Fprintln(os.Stderr, "grr:", res.Invariant)
		}
		return exitInternal
	}

	r2, err := core.New(b2, conns2, opts)
	if err != nil {
		return fail(err)
	}
	fmt.Println("\nedited route:")
	return routeAndReport(ctx, cfg, d2, b2, r2.Conns, r2)
}

// runResume reloads a -checkpoint snapshot and routes the rest of the
// board. Algorithmic options come from the snapshot — replaying the
// remainder with different knobs would diverge from the uninterrupted
// run — so an explicitly passed conflicting flag is refused loudly
// (exit 1) rather than silently overridden in either direction.
// Operational options (budget, checkpointing) come from this command
// line.
func runResume(ctx context.Context, cfg singleConfig, path string, flagOpts core.Options, explicit map[string]bool) int {
	snap, err := boardio.LoadSnapshot(path)
	if err != nil {
		return fail(err)
	}
	if err := resumeConflicts(flagOpts, snap.Opts, explicit); err != nil {
		return fail(err)
	}
	snap.Opts.TimeBudget = flagOpts.TimeBudget
	snap.Opts.Paranoid = snap.Opts.Paranoid || flagOpts.Paranoid
	snap.Opts.Metrics = flagOpts.Metrics // runtime-only; never serialized
	snap.Opts.CheckpointEvery = 0
	if cfg.checkpoint != "" {
		attachCheckpointSink(&snap.Opts, cfg.checkpoint, cfg.ckEvery, snap.Design, snap.Conns)
	}
	b, r, err := snap.Restore()
	if err != nil {
		return fail(err)
	}
	fmt.Printf("resumed %s: pass %d, connection %d/%d\n",
		snap.Design.Name, snap.Check.Pass+1, snap.Check.NextPos, len(snap.Conns))
	return routeAndReport(ctx, cfg, snap.Design, b, snap.Conns, r)
}

// routeAndReport runs a prepared router to completion and handles all
// reporting and artifact emission shared by fresh and resumed runs.
func routeAndReport(ctx context.Context, cfg singleConfig, d *netlist.Design, b *board.Board, conns []core.Connection, r *core.Router) int {
	start := time.Now()
	res := r.RouteContext(ctx)
	elapsed := time.Since(start)

	row := stats.NewRow(d, b, conns, res, elapsed)
	fmt.Println(stats.Header())
	fmt.Println(row.Format())
	if res.Aborted != core.AbortNone {
		fmt.Printf("aborted: %s\n", res.Aborted)
	}
	if len(res.FailedConns) > 0 {
		fmt.Printf("unrouted: %d connections\n", len(res.FailedConns))
	}

	code := exitOK
	if res.Aborted == core.AbortInvariant {
		fmt.Fprintln(os.Stderr, "grr: invariant broken:", res.Invariant)
		code = exitInternal
	} else if res.Aborted == core.AbortCheckpoint {
		fmt.Fprintln(os.Stderr, "grr: checkpoint write failed:", res.Invariant)
		code = exitInternal
	} else if !res.Complete() {
		code = exitIncomplete
	}

	if cfg.check {
		if err := verify.Routed(b, r); err != nil {
			fmt.Fprintln(os.Stderr, "grr: verification failed:", err)
			code = exitInternal
		} else {
			fmt.Println("connectivity verified")
		}
	}

	if cfg.report {
		model := tuning.DefaultSpeeds(b.NumLayers())
		reports := timing.Analyze(b, r, model)
		fmt.Println("\ncritical paths:")
		fmt.Print(timing.Format(timing.CriticalPaths(reports, 5)))
		if viol := timing.Violations(reports, 100); len(viol) > 0 {
			fmt.Printf("%d timed nets miss their targets by more than 100 ps\n", len(viol))
		}
	}

	if cfg.congst {
		fmt.Println("\nchannel occupancy (8x8 via-unit regions):")
		fmt.Print(stats.MeasureCongestion(b, 8).Heatmap())
	}

	if cfg.runDRC {
		violations := drc.Check(b, grid.DefaultProcess)
		if len(violations) == 0 {
			fmt.Println("drc clean")
		} else {
			for _, v := range violations {
				fmt.Println("drc:", v)
			}
		}
	}

	if cfg.gerber != "" {
		if err := writeGerber(cfg.gerber, b, r); err != nil {
			return fail(err)
		}
	}

	if cfg.routes != "" {
		if err := writeFile(cfg.routes, func(w io.Writer) error {
			return boardio.WriteRoutes(w, r)
		}); err != nil {
			return fail(err)
		}
	}

	if cfg.svgDir != "" {
		if err := writeSVGs(cfg.svgDir, d, b, r, conns); err != nil {
			return fail(err)
		}
	}
	return code
}

// resumeConflicts rejects explicitly passed algorithmic flags that
// disagree with the snapshot's recorded options. Flags left at their
// defaults are fine — the snapshot's values simply apply.
func resumeConflicts(flagOpts, snapOpts core.Options, explicit map[string]bool) error {
	checks := []struct {
		flagName   string
		flag, snap any
	}{
		{"radius", flagOpts.Radius, snapOpts.Radius},
		{"sort", flagOpts.Sort, snapOpts.Sort},
		{"cost", flagOpts.Cost, snapOpts.Cost},
		{"bidirectional", flagOpts.Bidirectional, snapOpts.Bidirectional},
		{"engine", flagOpts.Engine, snapOpts.Engine},
		{"node-budget", flagOpts.NodeBudget, snapOpts.NodeBudget},
	}
	for _, c := range checks {
		if explicit[c.flagName] && c.flag != c.snap {
			return fmt.Errorf(
				"-resume: snapshot was routed with %s=%v but -%s=%v was given; resuming with different algorithmic options would diverge from the interrupted run (drop the flag to use the snapshot's value)",
				c.flagName, c.snap, c.flagName, c.flag)
		}
	}
	return nil
}

func readDesign(path string) (*netlist.Design, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return boardio.ReadDesign(f)
}

func writeGerber(dir string, b *board.Board, r *core.Router) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for li := range b.Layers {
		path := filepath.Join(dir, fmt.Sprintf("layer%d.gbr", li))
		if err := writeFile(path, func(w io.Writer) error {
			return photoplot.WriteLayer(w, b, r, li)
		}); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	drillPath := filepath.Join(dir, "board.drl")
	if err := writeFile(drillPath, func(w io.Writer) error {
		return photoplot.WriteDrill(w, b)
	}); err != nil {
		return err
	}
	fmt.Println("wrote", drillPath)
	return nil
}

func writeSVGs(dir string, d *netlist.Design, b *board.Board, r *core.Router, conns []core.Connection) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	emit := func(name string, draw func(w io.Writer) error) error {
		path := filepath.Join(dir, name)
		if err := writeFile(path, draw); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}
	if err := emit("placement.svg", func(w io.Writer) error { return render.Placement(w, d) }); err != nil {
		return err
	}
	if err := emit("problem.svg", func(w io.Writer) error { return render.Problem(w, b, conns) }); err != nil {
		return err
	}
	for li := range b.Layers {
		li := li
		if err := emit(fmt.Sprintf("layer%d.svg", li), func(w io.Writer) error { return render.SignalLayer(w, b, li) }); err != nil {
			return err
		}
	}
	return emit("routes.svg", func(w io.Writer) error { return render.Routes(w, b, r) })
}

// writeFile creates path and runs write against it, reporting creation,
// write and close errors alike; the handle never leaks, even when write
// fails. Close errors matter here: every artifact goes through buffered
// writers whose final flush can be the first to see a full disk.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// startProfiles begins CPU profiling (if cpu is non-empty) and returns
// an idempotent stop function that also snapshots the heap to mem (if
// non-empty) after a final GC.
func startProfiles(cpu, mem string) (func(), error) {
	var stopCPU func()
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if stopCPU != nil {
				stopCPU()
			}
			if mem == "" {
				return
			}
			err := writeFile(mem, func(w io.Writer) error {
				runtime.GC() // fold pending garbage into accurate live-heap numbers
				return pprof.WriteHeapProfile(w)
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "grr:", err)
			}
		})
	}, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "grr:", err)
	return exitInternal
}
