package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/simfs"
)

// TestFleetSlowSoak is the fail-slow exam (DESIGN §14): four workers,
// one of which is not dead but *slow* — every board mutation stalls
// and every journal write drags — and a stream of deadline-carrying
// jobs. The test runs the same workload twice in one process:
//
//   - baseline: moves off. Jobs placed on the slow node — the first,
//     before it has an attempt time to rank by, and any a stale
//     heartbeat sends there — run to completion at the slow node's
//     pace; the tail is whatever the straggler makes it.
//   - moved: MoveAfter=40ms. The same stragglers are stolen from the
//     slow node once they outrun the delay and resumed on a healthy
//     peer from their last durable checkpoint.
//
// The contract:
//
//   - the moved tail (p99) is strictly below the baseline tail, in the
//     same process, same seeds, same slow node;
//   - zero jobs lost, zero duplicated: every job reaches done with the
//     oracle fingerprint, and is committed done in exactly ONE journal
//     fleet-wide;
//   - placement ranks the slow node by its own attempt times, so it
//     takes at most 8 of each phase's 80 jobs, and the coordinator
//     actually moved jobs (the win is causal, not luck).
func TestFleetSlowSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("fail-slow soak; run without -short")
	}

	const (
		numSeeds = 6
		numJobs  = 80 // per phase; two phases ≥ 150 total
	)
	deadlineMs := int64(60_000)

	specs := make([]server.JobSpec, numSeeds)
	wantFP := make([]string, numSeeds)
	for i := range specs {
		specs[i] = buildSpec(t, int64(700+i))
		specs[i].DeadlineMs = &deadlineMs
		wantFP[i] = oracleFP(t, specs[i])
	}

	base := runSlowPhase(t, "baseline", 0, specs, wantFP, numJobs)
	moved := runSlowPhase(t, "moved", 40*time.Millisecond, specs, wantFP, numJobs)

	if base.moves != 0 {
		t.Errorf("baseline phase moved %d jobs with moves off", base.moves)
	}
	if moved.moves == 0 {
		t.Error("moved phase moved no job — the tail comparison proves nothing")
	}
	for _, ph := range []slowPhase{base, moved} {
		if ph.slowJobs > numJobs/10 {
			t.Errorf("%s phase placed %d of %d jobs on the slow node, want at most %d",
				ph.name, ph.slowJobs, numJobs, numJobs/10)
		}
	}

	bp99, mp99 := p99(base.lats), p99(moved.lats)
	t.Logf("p99: baseline=%v moved=%v (moves: %d; jobs on the slow node: %d and %d)",
		bp99, mp99, moved.moves, base.slowJobs, moved.slowJobs)
	if mp99 >= bp99 {
		t.Errorf("moved p99 %v not below unmoved baseline p99 %v", mp99, bp99)
	}
}

type slowPhase struct {
	name     string
	lats     []time.Duration
	moves    int64
	slowJobs int // jobs placed on the slow node
}

// runSlowPhase boots a fresh coordinator and four workers (one slow on
// both CPU and disk), pushes numJobs deadline-carrying jobs through
// sequentially, and returns the per-job latencies. Before returning it
// asserts the phase's own zero-loss/zero-dup contract across all four
// journals.
func runSlowPhase(t *testing.T, name string, moveAfter time.Duration,
	specs []server.JobSpec, wantFP []string, numJobs int) slowPhase {
	t.Helper()
	out := slowPhase{name: name}
	ok := t.Run(name, func(t *testing.T) {
		c := New(Config{
			HeartbeatEvery: 25 * time.Millisecond,
			HeartbeatMiss:  40, // nobody dies in this test; fencing would hide fail-slow
			RetryBase:      2 * time.Millisecond,
			RetryMax:       20 * time.Millisecond,
			MoveAfter:      moveAfter,
		})
		ts := httptest.NewServer(c.Handler())
		defer func() {
			ts.Close()
			c.Close()
		}()

		agentClient := &http.Client{Timeout: 10 * time.Second}
		names := []string{"n1", "n2", "n3", "n4"}
		// The slow node is the one an idle fleet places on first (equal
		// load and no attempt times yet, so the first name).
		slowName := names[0]
		journals := make(map[string]string, len(names))
		for _, nn := range names {
			cfg := server.Config{
				Workers:     2,
				QueueDepth:  8,
				MaxAttempts: 12,
				JournalDir:  t.TempDir(),
				RetryBase:   time.Millisecond,
				RetryMax:    20 * time.Millisecond,
			}
			if nn == slowName {
				// The fail-slow node: every board mutation stalls 2ms and
				// every journal file operation drags 2ms. It is healthy by
				// every liveness measure — it heartbeats, it answers, it
				// finishes jobs — just far too slowly.
				slow := faultinject.NewSlowNode(2*time.Millisecond, 1)
				cfg.BoardHook = func(b *board.Board) { b.Interpose(slow) }
				prev := simfs.Swap(faultinject.NewSlowDisk(simfs.OS(), cfg.JournalDir, 2*time.Millisecond))
				t.Cleanup(func() { simfs.Swap(prev) })
			}
			journals[nn] = cfg.JournalDir
			startNode(t, nn, ts.URL, cfg, agentClient, nil)
		}
		waitFor(t, 10*time.Second, func() bool { return len(c.Nodes()) == 4 },
			"fleet never assembled")

		ids := make([]string, 0, numJobs)
		seed := make(map[string]int, numJobs)
		for i := 0; i < numJobs; i++ {
			t0 := time.Now()
			st := submit(t, ts.URL, specs[i%len(specs)])
			fin := waitJobDone(t, ts.URL, st.ID, 60*time.Second)
			out.lats = append(out.lats, time.Since(t0))
			if fin.State != server.StateDone {
				t.Fatalf("job %s: %+v", st.ID, fin)
			}
			if fin.AuditOK == nil || !*fin.AuditOK {
				t.Errorf("job %s finished without a clean audit: %+v", st.ID, fin)
			}
			if want := wantFP[i%len(specs)]; fin.Fingerprint != want {
				t.Errorf("job %s fingerprint = %s, want %s", st.ID, fin.Fingerprint, want)
			}
			ids = append(ids, st.ID)
			seed[st.ID] = i % len(specs)
			if strings.HasPrefix(st.ID, "job-"+slowName+"-") {
				out.slowJobs++
			}
		}
		out.moves = c.obs.moves.Value()

		// Zero loss, zero duplication: each job committed done in exactly
		// one journal.
		doneIn := make(map[string][]string)
		for nn, dir := range journals {
			recs, err := server.LoadRecords(dir, func(path string, err error) {
				t.Errorf("%s: corrupt journal record %s: %v", nn, path, err)
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if rec.State == server.StateDone {
					doneIn[rec.ID] = append(doneIn[rec.ID], nn)
				}
			}
		}
		for _, id := range ids {
			switch owners := doneIn[id]; len(owners) {
			case 1:
			case 0:
				t.Errorf("job %s reported done but committed in no journal", id)
			default:
				t.Errorf("job %s committed done on %d nodes (%v)",
					id, len(owners), owners)
			}
		}
	})
	if !ok {
		t.Fatalf("%s phase failed", name)
	}
	return out
}

// oracleFP formats the oracle fingerprint the way Status reports it.
func oracleFP(t *testing.T, spec server.JobSpec) string {
	t.Helper()
	return fmt.Sprintf("%016x", oracle(t, spec))
}

// p99 is the nearest-rank 99th percentile.
func p99(lats []time.Duration) time.Duration {
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	idx := (99*len(s) + 99) / 100
	if idx > len(s) {
		idx = len(s)
	}
	return s[idx-1]
}
