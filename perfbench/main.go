// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every output against an oracle, and prints
// its metrics, each with its unit, ending with one JSON line:
//
//	{"correct": true, "attempted": 27, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds this package first):
//
//	bash perfbench/run.sh --workload table1 --seed 0 --seconds 30 --trace 0
//
// Workloads: table1 (the nine Table 1 boards through grr's .brd to .rte
// path), service (a fleet coordinator fronting two grrd nodes, fed by
// two closed-loop clients) and eco (a chain of design edits on kdj11-4L
// re-routed incrementally). --seed draws every input; the same seed
// gives the same inputs. --trace 0 reports the end-to-end metrics;
// --trace 1 makes the traced run instead: an untraced half and a traced
// half, whose outputs must agree, with the obs registries armed, spans
// around every layer call, a CPU profile, and the per-layer metrics.
// BENCHMARK.json lists the metrics; catalog.go says which end-to-end
// metric each per-layer metric should move.
//
// Spans and the full report go to .bench_build/perfbench/results.
// The exit code is 0 only if every oracle passed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	outDir   string // scratch space inside the checkout
	// scale shrinks every board by this factor; the self-tests use it to
	// run each workload in seconds. 1 is the benchmark proper.
	scale int
}

// report collects what a run measured and what its oracles found.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	notes             []string
	latMs             []float64 // per-operation latency samples, untraced runs
	spans             []span
}

// fail records one failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// passResult is one measured pass over a workload's inputs.
type passResult struct {
	latMs   []float64 // per-operation latency
	opsPerS float64
	allocMB float64 // allocated per operation
	// Routed quality, summed over the operations.
	routed, conns, vias, wire int
	// witness maps an operation to its output (fingerprint and router
	// metrics), to prove the traced pass produced what the untraced did.
	witness map[string]string
	// layer holds the per-layer metrics measured in this pass, per
	// operation; ops is what span and profile times are divided by to
	// match (sweeps, jobs or edits).
	layer map[string]float64
	ops   float64
}

// bench is one benchmark workload after set-up.
type bench interface {
	// setupSeconds are the timed set-up repetitions, complete once a
	// pass has run.
	setupSeconds() []float64
	// pass runs operations for about budget; tr is nil when untraced.
	pass(tr *tracer, budget time.Duration, rep *report) (*passResult, error)
	close()
}

var workloads = map[string]func(config, *report) (bench, error){
	"table1":  newTable1,
	"service": newService,
	"eco":     newEco,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: table1, service or eco")
		seed    = flag.Int64("seed", 0, "input seed (0 = the Table 1 preset seeds)")
		seconds = flag.Int("seconds", 30, "measured seconds")
		trace   = flag.Int("trace", 0, "1 makes the traced run, which reports per-layer metrics")
		outDir  = flag.String("out", filepath.Join(".bench_build", "perfbench"), "scratch and results directory")
	)
	flag.Parse()
	cfg := config{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, outDir: *outDir, scale: 1}
	if _, ok := workloads[cfg.workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload table1|service|eco, --seconds >= 1, --trace 0|1")
		return 2
	}
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := emit(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// execute sets the workload up and runs the untraced pass, or the
// untraced and traced halves of the traced run.
func execute(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{metrics: map[string]float64{}}
	env := captureEnv(cfg.outDir)
	rep.note("environment: %s", env)
	w, err := workloads[cfg.workload](cfg, rep)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	defer w.close()

	if !cfg.trace {
		cpu0, wall0 := cpuSeconds(), time.Now()
		p, err := w.pass(nil, cfg.seconds, rep)
		if err != nil {
			return nil, err
		}
		rep.note("process CPU %.3f s over %.3f s", cpuSeconds()-cpu0, time.Since(wall0).Seconds())
		setup := median(w.setupSeconds())
		lat := summarize(p.latMs)
		rep.latMs = p.latMs
		rep.note("latency: %s", lat)
		rep.note("fail_pct: %.3f %% (%d of %d)", failPct(rep.attempted, rep.failed), rep.failed, rep.attempted)
		m := rep.metrics
		m["setup_s"] = setup
		m["ops_per_s"] = p.opsPerS
		m["latency_p50_ms"] = lat.p50
		m["latency_tail_ms"] = lat.tail
		m["routed_pct"] = 100 * float64(p.routed) / float64(max(p.conns, 1))
		m["vias_per_conn"] = float64(p.vias) / float64(max(p.routed, 1))
		m["wire_per_conn"] = float64(p.wire) / float64(max(p.routed, 1))
		m["alloc_mb"] = p.allocMB
		m["peak_rss_mb"] = peakRSSMB()
		return rep, nil
	}

	half := cfg.seconds / 2
	ref, err := w.pass(nil, half, rep)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	p, err := w.pass(tr, half, rep)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	compared := 0
	for k, want := range ref.witness {
		if got, ok := p.witness[k]; ok {
			compared++
			if got != want {
				rep.fail("%s: traced output %s differs from untraced %s", k, got, want)
			}
		}
	}
	rep.note("traced vs untraced: %d operations compared", compared)
	rep.spans = tr.spans
	for layer, s := range layerSelfTimes(tr.spans) {
		rep.metrics["self_s."+layer] = s / p.ops
	}
	cpu, err := flatCPU(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for pkg, s := range cpu {
		rep.metrics["cpu_s."+pkg] = s / p.ops
	}
	for k, v := range p.layer {
		rep.metrics[k] = v
	}
	rep.metrics["trace_overhead_pct"] = 100 * (ref.opsPerS/p.opsPerS - 1)
	return rep, nil
}

// emit prints every metric with its unit, writes the full report, and
// ends with the one-line JSON result.
func emit(cfg config, rep *report) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]valueUnit, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("%s did not report %s", cfg.workload, d.name)
		}
		out[d.name] = valueUnit{v, d.unit}
	}
	for name := range rep.metrics {
		if _, err := lookupMetric(defs, name); err != nil {
			return err
		}
	}
	fmt.Printf("perfbench %s seed %d, %s measured, trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	for _, p := range rep.problems {
		fmt.Println("  FAIL " + p)
	}
	for _, d := range defs {
		extra := ""
		if d.moves != "" {
			extra = fmt.Sprintf("  (moves %s on %s)", d.moves, d.on)
		}
		fmt.Printf("  %-34s %14.6g %s%s\n", d.name, out[d.name].Value, d.unit, extra)
	}

	resDir := filepath.Join(cfg.outDir, "results")
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		return err
	}
	full := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds.Seconds(),
		"trace": cfg.trace, "attempted": rep.attempted, "failed": rep.failed,
		"problems": rep.problems, "notes": rep.notes, "metrics": out,
		"latency_ms": rep.latMs, "spans": rep.spans,
	}
	buf, err := json.MarshalIndent(full, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(resDir, fmt.Sprintf("%s-seed%d-trace-%v.json", cfg.workload, cfg.seed, cfg.trace))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Println("  report:", path)

	line, err := json.Marshal(map[string]any{
		"correct": rep.failed == 0, "attempted": rep.attempted, "failed": rep.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
