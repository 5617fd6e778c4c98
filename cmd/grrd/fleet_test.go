package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
)

// startCoordinator runs an in-process coordinator (race-instrumented
// when the test binary is) behind a real listener, tuned for fast
// failover: 50ms sweeps, 3 missed beats ≈ 150ms to fencing.
func startCoordinator(t *testing.T) (*fleet.Coordinator, string) {
	t.Helper()
	c := fleet.New(fleet.Config{
		HeartbeatEvery: 50 * time.Millisecond,
		HeartbeatMiss:  3,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       50 * time.Millisecond,
	})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return c, ts.URL
}

// waitNode polls until the coordinator's view of a node satisfies ok.
func waitNode(t *testing.T, c *fleet.Coordinator, name string, ok func(fleet.NodeView) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range c.Nodes() {
			if n.Name == name && ok(n) {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("node %s never reached the wanted state; fleet view: %+v", name, c.Nodes())
}

// TestFleetKillAndHandoffEquivalence is the acceptance test of the PR:
// SIGKILL a fleet worker mid-job at a spread of mutation counts (via
// -crash-at — an os.Exit from inside a board mutation), let the
// coordinator miss its heartbeats, fence its journal, and hand its job
// to a peer, and require the handed-off job to finish with the exact
// fingerprint, metrics and audit verdict of a run that was never
// interrupted. Afterwards the dead node's journal must be fenced on
// disk and unusable for a restart — the zombie path is closed, not
// just unlikely.
func TestFleetKillAndHandoffEquivalence(t *testing.T) {
	spec := testSpec(t)
	wantFP, wantM, total := directRun(t, spec)
	if total < 8 {
		t.Fatalf("degenerate workload: only %d mutations", total)
	}
	points := []uint64{1, total / 3, 2 * total / 3, total - 1}

	for _, n := range points {
		t.Run(fmt.Sprintf("crash-at-%d", n), func(t *testing.T) {
			c, coordURL := startCoordinator(t)

			// Node a is the only member when the job arrives, so placement
			// is deterministic: the job lands on the node armed to die.
			dirA := t.TempDir()
			a := startDaemon(t, dirA,
				"-node-name", "a", "-join", coordURL,
				"-heartbeat-every", "25ms", "-crash-at", fmt.Sprint(n))
			waitNode(t, c, "a", func(nv fleet.NodeView) bool { return !nv.Fenced })

			const id = "job-a-000000"
			// The submission can lose the race against the crash (worker a
			// may die before the forwarded response flushes); the job is
			// journaled on a before it runs, so failover still owns it.
			if st, resp, err := postJob(t, coordURL, spec); err == nil {
				if resp.StatusCode != http.StatusAccepted {
					t.Logf("POST /jobs = %d (crash won the race)", resp.StatusCode)
				} else if st.ID != id {
					t.Fatalf("forwarded job ID = %s, want %s", st.ID, id)
				}
			}
			if code := a.wait(); code != exitCrash {
				t.Fatalf("crash exit code = %d, want %d\nstderr:\n%s", code, exitCrash, a.stderr.String())
			}

			// A clean peer joins; the coordinator fences the corpse and
			// hands the journaled job over.
			b := startDaemon(t, t.TempDir(),
				"-node-name", "b", "-join", coordURL, "-heartbeat-every", "25ms")
			defer func() {
				b.cmd.Process.Kill()
			}()
			waitNode(t, c, "a", func(nv fleet.NodeView) bool { return nv.Fenced })

			fin := waitDone(t, coordURL, id)
			if fin.State != server.StateDone || fin.AuditOK == nil || !*fin.AuditOK {
				t.Fatalf("handed-off job did not finish clean: %+v", fin)
			}
			if want := fmt.Sprintf("%016x", wantFP); fin.Fingerprint != want {
				t.Errorf("fingerprint after kill at %d = %s, want %s", n, fin.Fingerprint, want)
			}
			if *fin.Metrics != wantM {
				t.Errorf("metrics after kill at %d diverged:\n got  %+v\n want %+v", n, *fin.Metrics, wantM)
			}

			// The fence is durable: the EPOCH file says so, and a daemon
			// restarted on the dead node's journal is refused at startup.
			epoch, fenced, err := server.ReadEpoch(dirA)
			if err != nil {
				t.Fatal(err)
			}
			if !fenced || epoch != 2 {
				t.Errorf("dead node journal epoch = %d fenced=%v, want 2 fenced", epoch, fenced)
			}
			out, err := exec.Command(grrdBin, "-journal-dir", dirA).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != exitInternal {
				t.Fatalf("restart on fenced journal: err = %v, want exit %d\n%s", err, exitInternal, out)
			}
			if !strings.Contains(string(out), "fenced") {
				t.Errorf("fenced-restart refusal does not say why:\n%s", out)
			}
		})
	}
}

// TestFleetCoordinatorMode exercises the grrd -coordinator binary
// end-to-end: a subprocess coordinator, a subprocess worker joining
// it, a job submitted through the front door, and — the router being
// deterministic — a second identical submission routed again as a new
// job to the same fingerprint. The coordinator's stderr carries one
// line per event: the worker's join is recorded once.
func TestFleetCoordinatorMode(t *testing.T) {
	spec := testSpec(t)
	wantFP, _, _ := directRun(t, spec)

	coord := startCoordinatorDaemon(t)
	journal := t.TempDir()
	w := startDaemon(t, journal,
		"-node-name", "w", "-join", coord.base, "-heartbeat-every", "25ms")
	defer w.cmd.Process.Kill()

	// The coordinator is not ready until a worker is schedulable.
	waitReadyz(t, coord.base)

	st, resp, err := postJob(t, coord.base, spec)
	if err != nil {
		t.Fatalf("POST /jobs via coordinator: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs via coordinator = %d, want 202", resp.StatusCode)
	}
	if resp.Header.Get("X-Grr-Node") != "w" {
		t.Errorf("X-Grr-Node = %q, want w", resp.Header.Get("X-Grr-Node"))
	}
	fin := waitDone(t, coord.base, st.ID)
	if fin.State != server.StateDone {
		t.Fatalf("job via coordinator: %+v", fin)
	}
	if want := fmt.Sprintf("%016x", wantFP); fin.Fingerprint != want {
		t.Errorf("fingerprint via coordinator = %s, want %s", fin.Fingerprint, want)
	}

	// Identical resubmission: admitted again (202, a new job ID) and
	// routed again to the same fingerprint.
	st2, resp2, err := postJob(t, coord.base, spec)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit = %d, want 202", resp2.StatusCode)
	}
	if st2.ID == st.ID {
		t.Errorf("resubmit reused job ID %s", st.ID)
	}
	if fin2 := waitDone(t, coord.base, st2.ID); fin2.Fingerprint != fin.Fingerprint {
		t.Errorf("resubmitted fingerprint = %s, want %s", fin2.Fingerprint, fin.Fingerprint)
	}

	// One line per event: after the coordinator exits, its stderr holds
	// exactly one record of the worker's join, and that line carries
	// the worker's journal.
	coord.cmd.Process.Signal(syscall.SIGTERM)
	if code := coord.wait(); code != exitOK {
		t.Fatalf("coordinator exit = %d, want %d\nstderr:\n%s", code, exitOK, coord.stderr.String())
	}
	var joins []string
	for _, line := range strings.Split(coord.stderr.String(), "\n") {
		if strings.Contains(line, "join") {
			joins = append(joins, line)
		}
	}
	if len(joins) != 1 || !strings.Contains(joins[0], "event=fleet_join") ||
		!strings.Contains(joins[0], "journal="+journal) {
		t.Errorf("coordinator stderr records the join as %q, want one fleet_join line with journal=%s",
			joins, journal)
	}
}

// startCoordinatorDaemon launches grrd -coordinator and waits for the
// shared banner.
func startCoordinatorDaemon(t *testing.T) *daemon {
	t.Helper()
	return startRawDaemon(t, "-coordinator",
		"-heartbeat-every", "50ms", "-heartbeat-miss", "3")
}

func waitReadyz(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s/readyz never went ready", base)
}
