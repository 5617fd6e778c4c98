package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/verify"
	"repro/internal/workload"
)

func TestRouteSpecPipeline(t *testing.T) {
	run, err := RouteSpec(workload.SmallSpec(6), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !run.Result.Complete() {
		t.Fatalf("small board incomplete: %v", run.Result.FailedConns)
	}
	if err := verify.Routed(run.Board, run.Router); err != nil {
		t.Fatal(err)
	}
	row := run.Row()
	if row.Conns != len(run.Strung.Conns) || row.Routed != row.Conns {
		t.Errorf("row inconsistent: %+v", row)
	}
	if row.ChanPct <= 0 || row.PinsIn2 <= 0 {
		t.Errorf("degenerate row metrics: %+v", row)
	}
	if !strings.Contains(row.Format(), "small") {
		t.Error("row formatting lost the board name")
	}
}

func TestScaledTable1RunsQuickly(t *testing.T) {
	rows, err := Table1(4, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	table := stats.FormatTable(rows)
	for _, name := range []string{"kdj11", "coproc", "tna"} {
		if !strings.Contains(table, name) {
			t.Errorf("table missing %s:\n%s", name, table)
		}
	}
}

// TestTable1ParallelMatchesSequential checks that spreading the sweep
// over goroutines changes nothing but wall time: every board routes on
// its own Board/Router, so each row must be field-for-field identical to
// the sequential run (Elapsed excepted — it is the one nondeterministic
// column).
func TestTable1ParallelMatchesSequential(t *testing.T) {
	opts := core.DefaultOptions()
	seq, err := Table1(6, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Table1Parallel(6, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seq) {
		t.Fatalf("parallel returned %d rows, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		a, b := seq[i], par[i]
		a.Elapsed, b.Elapsed = 0, 0
		if a != b {
			t.Errorf("row %d differs:\n sequential %+v\n parallel   %+v", i, a, b)
		}
	}
}

// TestTable1Shape routes every full-size Table 1 board once per engine
// (skipped with -short). On a 2-vCPU host the classic sweep takes about
// 13 s and the goal sweep about 12 s. Every routed board must pass its
// audit. The classic rows must show the paper's qualitative results:
//
//   - the 2-layer kdj11 fails around the paper's 80% completion and the
//     same board completes on 4 layers;
//   - every other board routes completely;
//   - vias per connection stay below 2 on every completed board and
//     below 1 on the easy half (paper: 0.40–0.99);
//   - %lee decreases from the hardest completed board to the easiest
//     band (the paper's "denser boards have higher %lee").
//
// Each classic board fingerprint must equal the one BENCH_ca3981a.json
// records: classic output is bit-identical across revisions. The goal
// sweep must pass engineGate against the classic one. A race-detector
// build skips the goal sweep (raceEnabled).
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size Table 1 under both engines (~25s); run without -short")
	}
	baseline := baselineFingerprints(t)
	var rows []stats.Row
	var gate []engineRow
	for _, spec := range workload.Table1Specs() {
		classic := routeAudited(t, spec, core.EngineClassic)
		rows = append(rows, classic.Row())
		if got, want := fmt.Sprintf("%016x", classic.Board.Fingerprint()), baseline[spec.Name]; got != want {
			t.Errorf("%s: classic fingerprint %s, BENCH_ca3981a.json records %s", spec.Name, got, want)
		}
		if raceEnabled {
			continue
		}
		goal := routeAudited(t, spec, core.EngineGoal)
		cm, gm := classic.Result.Metrics, goal.Result.Metrics
		gate = append(gate, engineRow{
			Board: spec.Name, Conns: cm.Connections,
			ClassicRouted: cm.Routed, GoalRouted: gm.Routed,
			ClassicExpanded: cm.LeeExpansions, GoalExpanded: gm.LeeExpansions,
		})
		t.Logf("%-8s expansions: classic %7d, goal %7d", spec.Name, cm.LeeExpansions, gm.LeeExpansions)
	}
	if err := engineGate(gate); err != nil {
		t.Error(err)
	}
	byName := map[string]stats.Row{}
	for _, r := range rows {
		byName[r.Board] = r
	}

	k2 := byName["kdj11-2L"]
	if k2.Failed == 0 {
		t.Error("kdj11 on 2 layers should fail (the paper's first row)")
	}
	if pct := float64(k2.Routed) / float64(k2.Conns); pct < 0.7 || pct > 0.95 {
		t.Errorf("kdj11-2L completed %.0f%%, paper gave up near 80%%", 100*pct)
	}
	for _, name := range []string{"nmc-4L", "dpath", "coproc", "kdj11-4L", "icache", "nmc-6L", "dcache", "tna"} {
		r := byName[name]
		if r.Failed != 0 {
			t.Errorf("%s left %d connections unrouted; the paper routed it fully", name, r.Failed)
		}
		if r.ViasPC >= 2 {
			t.Errorf("%s vias/conn = %.2f, implausibly high", name, r.ViasPC)
		}
	}
	// %chan ordering must follow the paper's difficulty ordering.
	order := []string{"nmc-4L", "dpath", "coproc", "kdj11-4L", "icache", "nmc-6L", "dcache", "tna"}
	for i := 1; i < len(order); i++ {
		if byName[order[i-1]].ChanPct < byName[order[i]].ChanPct {
			t.Errorf("%%chan ordering violated: %s (%.1f) < %s (%.1f)",
				order[i-1], byName[order[i-1]].ChanPct, order[i], byName[order[i]].ChanPct)
		}
	}
	// The hardest completed boards need Lee more than the easiest.
	if byName["nmc-4L"].LeePct <= byName["tna"].LeePct {
		t.Errorf("%%lee should fall with difficulty: nmc-4L %.1f vs tna %.1f",
			byName["nmc-4L"].LeePct, byName["tna"].LeePct)
	}
	t.Logf("\n%s", stats.FormatTable(rows))
}

// routeAudited routes spec under engine with otherwise default options
// and fails the test unless the routed board passes its audit.
func routeAudited(t *testing.T, spec workload.Spec, engine core.Engine) *Run {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Engine = engine
	run, err := RouteSpec(spec, opts)
	if err != nil {
		t.Fatalf("%s (%s engine): %v", spec.Name, engine, err)
	}
	if err := run.Board.Audit(); err != nil {
		t.Fatalf("%s (%s engine) audit: %v", spec.Name, engine, err)
	}
	return run
}

// baselineFingerprints reads the classic-engine board fingerprint of
// every full-size Table 1 board from the committed BENCH_ca3981a.json.
func baselineFingerprints(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_ca3981a.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Boards []struct{ Board, Fingerprint string }
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	fps := map[string]string{}
	for _, b := range doc.Boards {
		fps[b.Board] = b.Fingerprint
	}
	return fps
}
