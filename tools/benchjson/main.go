// Command benchjson runs the Table 1 sweep under the classic and the
// goal-oriented search engine and writes the results as machine-readable
// JSON to BENCH_<gitsha>.json, so successive commits can be compared
// number by number instead of by eyeballing test logs.
//
// For every board it records the classic engine's board fingerprint and,
// per engine, wall-clock seconds, heap allocations and bytes, expanded
// Lee nodes and routed/failed counts. Before writing anything it asserts
// the goal-engine contract (assertEngines): routed-metric parity per
// board and, at full scale, at least 20% fewer expanded nodes in
// aggregate. Every routed board must also pass its audit.
//
// The environment block records GOMAXPROCS and NumCPU, so a number can
// be read against the hardware that produced it.
//
// Usage:
//
//	go run ./tools/benchjson -scale 4 -out .
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/workload"
)

// engineRun is one board routed sequentially under the named engine.
type engineRun struct {
	Engine     string  `json:"engine"`
	Seconds    float64 `json:"seconds"`
	Allocs     uint64  `json:"allocs"`
	Bytes      uint64  `json:"bytes"`
	Expansions int     `json:"lee_expansions"`
	Routed     int     `json:"routed"`
	Failed     int     `json:"failed"`
	Vias       int     `json:"vias"`
	RipUps     int     `json:"rip_ups"`
}

type boardResult struct {
	Board string `json:"board"`
	Conns int    `json:"conns"`
	// Fingerprint is the classic engine's routed board.
	Fingerprint string `json:"fingerprint"`
	// Engines compares the classic and goal-oriented engines on this
	// board. main asserts the comparison: the goal engine must expand
	// meaningfully fewer nodes in aggregate while routing the same
	// number of connections per board.
	Engines []engineRun `json:"engines"`
}

type output struct {
	GitSHA     string        `json:"git_sha"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	Scale      int           `json:"scale"`
	When       string        `json:"when"`
	Boards     []boardResult `json:"boards"`
}

func main() {
	var (
		scale  = flag.Int("scale", 1, "shrink Table 1 boards by this factor")
		outDir = flag.String("out", ".", "directory for BENCH_<gitsha>.json")
		boards = flag.String("boards", "", "comma-separated board-name filter (default: all)")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, b := range strings.Split(*boards, ",") {
		if b = strings.TrimSpace(b); b != "" {
			want[b] = true
		}
	}

	out := output{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Scale:      *scale,
		When:       time.Now().UTC().Format(time.RFC3339),
	}

	for _, spec := range workload.Table1Specs() {
		if len(want) > 0 && !want[spec.Name] {
			continue
		}
		br, err := benchBoard(spec.Scale(*scale))
		if err != nil {
			fatal(fmt.Errorf("%s: %w", spec.Name, err))
		}
		out.Boards = append(out.Boards, br)
		cl, gl := br.Engines[0], br.Engines[1]
		fmt.Printf("%-10s %5d conns:  classic %.3fs %d expansions  goal %.3fs %d expansions  fp %s\n",
			br.Board, br.Conns, cl.Seconds, cl.Expansions, gl.Seconds, gl.Expansions, br.Fingerprint)
	}

	if err := assertEngines(out.Boards); err != nil {
		fatal(err)
	}

	path := filepath.Join(*outDir, "BENCH_"+out.GitSHA+".json")
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(out)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

// benchBoard routes one board once per engine, classic first, auditing
// each result.
func benchBoard(spec workload.Spec) (boardResult, error) {
	br := boardResult{Board: spec.Name}
	for _, engine := range []core.Engine{core.EngineClassic, core.EngineGoal} {
		opts := core.DefaultOptions()
		opts.Engine = engine
		name := engine.String()

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		run, err := experiment.RouteSpec(spec, opts)
		if err != nil {
			return br, err
		}
		runtime.ReadMemStats(&after)
		if err := run.Board.Audit(); err != nil {
			return br, fmt.Errorf("%s engine audit: %w", name, err)
		}

		m := run.Result.Metrics
		if engine == core.EngineClassic {
			br.Conns = m.Connections
			br.Fingerprint = fmt.Sprintf("%016x", run.Board.Fingerprint())
		}
		br.Engines = append(br.Engines, engineRun{
			Engine:     name,
			Seconds:    run.Elapsed.Seconds(),
			Allocs:     after.Mallocs - before.Mallocs,
			Bytes:      after.TotalAlloc - before.TotalAlloc,
			Expansions: m.LeeExpansions,
			Routed:     m.Routed,
			Failed:     m.Failed,
			Vias:       m.ViasAdded,
			RipUps:     m.RipUps,
		})
	}
	return br, nil
}

// assertEngines enforces the goal-engine contract across the sweep
// (DESIGN §15): per board, routed-metric parity and no expansion
// regression beyond noise; in aggregate, at least 20% fewer expanded
// nodes. A violation is a hard error — the bench artifact must not be
// written from a build whose heuristic stopped paying for itself.
func assertEngines(boards []boardResult) error {
	// Rows with real Lee traffic must improve strictly; tiny rows (the
	// optimal zero/one-via strategies route almost everything) only get
	// a noise guard, since a handful of floods can tie-break either way.
	const bigRow = 10000
	var classicTotal, goalTotal int
	for _, br := range boards {
		var cl, gl *engineRun
		for i := range br.Engines {
			switch br.Engines[i].Engine {
			case "classic":
				cl = &br.Engines[i]
			case "goal":
				gl = &br.Engines[i]
			}
		}
		if cl == nil || gl == nil {
			return fmt.Errorf("%s: engine comparison rows missing", br.Board)
		}
		classicTotal += cl.Expansions
		goalTotal += gl.Expansions
		// Routed-metric parity: the heuristic may only change the ORDER
		// of exploration, not meaningfully what gets routed. On feasible
		// boards both engines route everything and parity is exact; on
		// over-congested boards (kdj11-2L fails ~18% of its connections
		// under either engine) different tie-breaks cascade into slightly
		// different rip-up histories, so each row gets a 2%-of-connections
		// allowance in either direction.
		skew := br.Conns / 50
		if skew < 1 {
			skew = 1
		}
		if gl.Routed < cl.Routed-skew || gl.Routed > cl.Routed+skew {
			return fmt.Errorf("%s: goal engine routed %d of %d, classic %d — beyond the 2%% parity allowance",
				br.Board, gl.Routed, br.Conns, cl.Routed)
		}
		if cl.Expansions >= bigRow && gl.Expansions >= cl.Expansions {
			return fmt.Errorf("%s: goal engine expanded %d nodes, classic %d — no improvement on a Lee-heavy row",
				br.Board, gl.Expansions, cl.Expansions)
		}
		if cl.Expansions < bigRow && gl.Expansions > cl.Expansions+cl.Expansions/6 {
			return fmt.Errorf("%s: goal engine expanded %d nodes, classic %d — beyond the small-row noise allowance",
				br.Board, gl.Expansions, cl.Expansions)
		}
	}
	// The aggregate 20% target only means something when the sweep had
	// real Lee traffic; a shrunken -scale run routes almost everything
	// with the optimal strategies and would compare noise against noise.
	if classicTotal >= bigRow && goalTotal*10 > classicTotal*8 {
		return fmt.Errorf("goal engine expanded %d nodes across the sweep, classic %d — less than the required 20%% reduction",
			goalTotal, classicTotal)
	}
	return nil
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
