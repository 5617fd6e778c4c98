package main

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/boardio"
	"repro/internal/workload"
)

// grrBin is the binary under test, built once by TestMain.
var grrBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "grr-test")
	if err != nil {
		panic(err)
	}
	grrBin = filepath.Join(dir, "grr")
	if out, err := exec.Command("go", "build", "-o", grrBin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("building grr: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// a small but non-trivial design every CLI test shares.
const testDesign = `board cli-test 12 12 2 3
package dip4 0 0,0 1,0 0,1 1,1
part u1 dip4 1 1 TTL
part u2 dip4 8 8 TTL
part u3 dip4 1 8 TTL
net n1 TTL 0 u1.1/out u2.2/in
net n2 TTL 0 u1.4/out u3.1/in
net n3 TTL 0 u3.4/out u2.1/in
`

func writeDesignFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.brd")
	if err := os.WriteFile(path, []byte(testDesign), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runGrr executes the binary and returns (combined output, exit code).
func runGrr(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(grrBin, args...).CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	var ee *exec.ExitError
	if !asExitError(err, &ee) {
		t.Fatalf("running grr: %v\n%s", err, out)
	}
	return string(out), ee.ExitCode()
}

func asExitError(err error, target **exec.ExitError) bool {
	ee, ok := err.(*exec.ExitError)
	if ok {
		*target = ee
	}
	return ok
}

// TestEditsRefuseBlockAcrossGridEdge: -edits builds the edited design
// with grrd's builder (boardio.EditDesign), so a block that crosses the
// routing grid's edge is refused before any routing, as POST
// /jobs/{id}/edit refuses it, instead of being clipped to the board. A
// block inside the grid still routes the edited board.
func TestEditsRefuseBlockAcrossGridEdge(t *testing.T) {
	spec, _ := workload.Table1Spec("kdj11-4L")
	d, err := workload.Generate(spec.Scale(3))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	brd := filepath.Join(dir, "k4.brd")
	if err := writeFile(brd, func(w io.Writer) error { return boardio.WriteDesign(w, d) }); err != nil {
		t.Fatal(err)
	}
	script := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	out, code := runGrr(t, "-design", brd, "-edits", script("edge.edits", "block 84 0 200 2\n"))
	if code != exitInternal {
		t.Fatalf("block across the grid's edge: exit %d, want %d\n%s", code, exitInternal, out)
	}
	if !strings.Contains(out, "outside the [0,0..87,102] routing grid") {
		t.Errorf("refusal does not name the grid:\n%s", out)
	}
	if strings.Contains(out, "base route:") {
		t.Errorf("a refused script still routed the base design:\n%s", out)
	}

	out, code = runGrr(t, "-design", brd, "-edits", script("inside.edits", "block 40 40 44 44\n"))
	if code != exitOK || !strings.Contains(out, "edited route:") || !strings.Contains(out, "connectivity verified") {
		t.Errorf("block inside the grid: exit %d\n%s", code, out)
	}
}

func TestExitUsageWithoutDesign(t *testing.T) {
	out, code := runGrr(t)
	if code != exitUsage {
		t.Fatalf("exit code = %d, want %d\n%s", code, exitUsage, out)
	}
	if !strings.Contains(out, "-design, -table1 or -resume") {
		t.Errorf("usage message missing: %s", out)
	}
}

// TestCheckpointResume drives the full operator workflow: route with
// periodic snapshots, resume from the snapshot (exit 0, same verified
// board), then corrupt the snapshot and demand a clean exit-1 rejection.
func TestCheckpointResume(t *testing.T) {
	brd := writeDesignFile(t)
	snap := filepath.Join(t.TempDir(), "run.snap")

	out, code := runGrr(t, "-design", brd, "-checkpoint", snap, "-checkpoint-every", "1")
	if code != exitOK {
		t.Fatalf("checkpointed run exit code = %d, want %d\n%s", code, exitOK, out)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	if _, err := os.Stat(snap + ".tmp"); err == nil {
		t.Error("temporary snapshot file left behind")
	}

	out, code = runGrr(t, "-resume", snap)
	if code != exitOK {
		t.Fatalf("resume exit code = %d, want %d\n%s", code, exitOK, out)
	}
	if !strings.Contains(out, "resumed cli-test") {
		t.Errorf("resume banner missing: %s", out)
	}
	if !strings.Contains(out, "connectivity verified") {
		t.Errorf("resumed board failed verification: %s", out)
	}

	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runGrr(t, "-resume", snap)
	if code != exitInternal {
		t.Fatalf("corrupt snapshot exit code = %d, want %d\n%s", code, exitInternal, out)
	}
	if !strings.Contains(out, "checksum") {
		t.Errorf("corruption diagnosis missing: %s", out)
	}
}

// TestStatsFlagDumpsRegistry: -stats routes normally and then dumps the
// metrics registry, with the router's search and phase series present.
func TestStatsFlagDumpsRegistry(t *testing.T) {
	brd := writeDesignFile(t)
	out, code := runGrr(t, "-design", brd, "-stats")
	if code != exitOK {
		t.Fatalf("exit code = %d, want %d\n%s", code, exitOK, out)
	}
	for _, want := range []string{
		"grr: metrics registry:",
		"grr_router_routed_total",
		"grr_router_connections_total",
		`grr_router_phase_seconds{phase="zero_via"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output missing %q:\n%s", want, out)
		}
	}
}

// TestStatsFlagOffByDefault: without -stats the dump never appears.
func TestStatsFlagOffByDefault(t *testing.T) {
	brd := writeDesignFile(t)
	out, code := runGrr(t, "-design", brd)
	if code != exitOK {
		t.Fatalf("exit code = %d, want %d\n%s", code, exitOK, out)
	}
	if strings.Contains(out, "metrics registry") {
		t.Errorf("registry dump printed without -stats:\n%s", out)
	}
}

func TestResumeExcludesDesign(t *testing.T) {
	out, code := runGrr(t, "-resume", "x.snap", "-design", "y.brd")
	if code != exitUsage {
		t.Fatalf("exit code = %d, want %d\n%s", code, exitUsage, out)
	}
}

func TestExitOKWritesArtifacts(t *testing.T) {
	brd := writeDesignFile(t)
	rte := filepath.Join(t.TempDir(), "out.rte")
	out, code := runGrr(t, "-design", brd, "-routes", rte)
	if code != exitOK {
		t.Fatalf("exit code = %d, want %d\n%s", code, exitOK, out)
	}
	if !strings.Contains(out, "connectivity verified") {
		t.Errorf("verification line missing: %s", out)
	}
	data, err := os.ReadFile(rte)
	if err != nil {
		t.Fatalf("routes artifact not written: %v", err)
	}
	if !strings.Contains(string(data), "route 0") {
		t.Errorf(".rte content looks wrong: %q", data)
	}
}

// TestExitIncompleteOnTimeBudget is the CLI half of the issue's
// acceptance scenario: an expired budget must exit 3 — incomplete but
// consistent — and still write the requested artifacts for inspection.
func TestExitIncompleteOnTimeBudget(t *testing.T) {
	brd := writeDesignFile(t)
	rte := filepath.Join(t.TempDir(), "out.rte")
	out, code := runGrr(t, "-design", brd, "-routes", rte, "-time-budget", "1ns")
	if code != exitIncomplete {
		t.Fatalf("exit code = %d, want %d\n%s", code, exitIncomplete, out)
	}
	if !strings.Contains(out, "aborted: time budget exhausted") {
		t.Errorf("abort reason missing from output: %s", out)
	}
	if !strings.Contains(out, "connectivity verified") {
		t.Errorf("partial board failed verification: %s", out)
	}
	if _, err := os.Stat(rte); err != nil {
		t.Errorf("partial .rte artifact not written: %v", err)
	}
}

func TestExitUsageOnBadCost(t *testing.T) {
	brd := writeDesignFile(t)
	out, code := runGrr(t, "-design", brd, "-cost", "bogus")
	if code != exitUsage {
		t.Fatalf("exit code = %d, want %d\n%s", code, exitUsage, out)
	}
}

func TestParanoidFlagCleanRun(t *testing.T) {
	brd := writeDesignFile(t)
	out, code := runGrr(t, "-design", brd, "-paranoid")
	if code != exitOK {
		t.Fatalf("paranoid clean run exit code = %d, want %d\n%s", code, exitOK, out)
	}
}

func TestNodeBudgetFlagAccepted(t *testing.T) {
	brd := writeDesignFile(t)
	out, code := runGrr(t, "-design", brd, "-node-budget", "100000")
	if code != exitOK {
		t.Fatalf("node-budget run exit code = %d, want %d\n%s", code, exitOK, out)
	}
}

// TestResumeOptionConflict: explicitly passing an algorithmic flag that
// disagrees with the snapshot must fail loudly (exit 1) — silently
// resuming with mixed options would build a board neither run would
// have produced. Matching explicit flags and untouched defaults are
// both fine.
func TestResumeOptionConflict(t *testing.T) {
	brd := writeDesignFile(t)
	snap := filepath.Join(t.TempDir(), "run.snap")
	out, code := runGrr(t, "-design", brd, "-radius", "2", "-checkpoint", snap, "-checkpoint-every", "1")
	if code != exitOK {
		t.Fatalf("checkpointed run exit code = %d, want %d\n%s", code, exitOK, out)
	}

	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"conflicting radius", []string{"-radius", "1"}, exitInternal},
		{"conflicting sort", []string{"-sort=false"}, exitInternal},
		{"conflicting node budget", []string{"-node-budget", "7"}, exitInternal},
		{"matching radius", []string{"-radius", "2"}, exitOK},
		{"defaults", nil, exitOK},
	} {
		out, code := runGrr(t, append([]string{"-resume", snap}, tc.args...)...)
		if code != tc.want {
			t.Errorf("%s: exit code = %d, want %d\n%s", tc.name, code, tc.want, out)
		}
		if tc.want == exitInternal && !strings.Contains(out, "resuming with different algorithmic options") {
			t.Errorf("%s: conflict diagnosis missing:\n%s", tc.name, out)
		}
	}
}

// TestSecondSignalForcesExit: a run wedged inside a board mutation (the
// -fault-hang-at blocker holds it there forever) cannot honor the
// first signal's soft cancel — the second signal must terminate the
// process immediately with exit 130.
func TestSecondSignalForcesExit(t *testing.T) {
	brd := writeDesignFile(t)
	cmd := exec.Command(grrBin, "-design", brd, "-fault-hang-at", "1")
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()

	// First signal: acknowledged, but the wedged run can never reach the
	// boundary where the cancel is honored.
	time.Sleep(100 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waited:
		t.Fatalf("hung run exited on the first signal: %v\n%s", err, out.String())
	case <-time.After(300 * time.Millisecond):
	}

	// Second signal: immediate exit 130.
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waited:
		var ee *exec.ExitError
		if !asExitError(err, &ee) || ee.ExitCode() != exitForced {
			t.Fatalf("second signal: err = %v, want exit %d\n%s", err, exitForced, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("second signal did not terminate the run\n%s", out.String())
	}
	if !strings.Contains(out.String(), "forcing exit") {
		t.Errorf("forced-exit banner missing:\n%s", out.String())
	}
}
