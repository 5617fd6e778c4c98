package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
)

// TestFleetChaosSoak is the fleet's survival exam: four workers behind
// one coordinator, two hundred-plus jobs, and a scripted campaign of
// network partitions, heartbeat loss (a zombie that keeps routing
// while the fleet fences it), and a full node kill. The contract that
// has to hold through all of it is the same absolute one the
// single-node soak enforces:
//
//   - no job is lost — every submitted job reaches done through the
//     coordinator's front door;
//   - no job is duplicated — no job ID is committed done in more than
//     one node's journal (the epoch fence makes a zombie's commits
//     bounce, so this is a real invariant, not luck);
//   - every result is bit-identical — fingerprint and router metrics —
//     to a quiet, fleet-free run of the same spec;
//   - fenced nodes stay fenced on disk.
//
// The chaos is deterministic (scripted at fixed submission indices,
// seeded workloads), so a failure reproduces.
func TestFleetChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak; run without -short")
	}

	const (
		numSeeds = 6
		numJobs  = 210
	)

	part := faultinject.NewPartition()
	c := New(Config{
		HeartbeatEvery: 50 * time.Millisecond,
		// A generous fencing deadline (20 missed beats = 1s): all five
		// nodes, the coordinator and the race detector share one Go
		// runtime here, and a scheduler stall that would never hit a
		// real fleet can easily silence every agent for 200ms at once.
		// The scripted kills mute heartbeats outright, so they still
		// fence promptly at this deadline.
		HeartbeatMiss: 20,
		RetryBase:     2 * time.Millisecond,
		RetryMax:      20 * time.Millisecond,
		Transport:     part.RoundTripper(nil),
	})
	ts := httptest.NewServer(c.Handler())
	defer func() {
		ts.Close()
		c.Close()
	}()

	// Baselines before any chaos: one direct run per seed.
	specs := make([]server.JobSpec, numSeeds)
	wantFP := make([]string, numSeeds)
	for i := range specs {
		specs[i] = buildSpec(t, int64(300+i))
		wantFP[i] = fmt.Sprintf("%016x", oracle(t, specs[i]))
	}

	agentClient := &http.Client{Transport: part.RoundTripper(nil), Timeout: 10 * time.Second}
	nodeCfg := func() server.Config {
		return server.Config{
			Workers:     2,
			QueueDepth:  8,
			MaxAttempts: 12,
			JournalDir:  t.TempDir(),
			RetryBase:   time.Millisecond,
			RetryMax:    20 * time.Millisecond,
		}
	}
	names := []string{"n1", "n2", "n3", "n4"}
	nodes := make(map[string]*fleetNode, len(names)+1)
	journals := make(map[string]string, len(names)+1)
	for _, name := range names {
		name := name
		cfg := nodeCfg()
		journals[name] = cfg.JournalDir
		nodes[name] = startNode(t, name, ts.URL, cfg, agentClient,
			func() bool { return part.HeartbeatDropped(name) })
	}
	waitFor(t, 10*time.Second, func() bool { return len(c.Nodes()) == len(names) },
		"fleet never assembled")

	host := func(n *fleetNode) string { return strings.TrimPrefix(n.ts.URL, "http://") }

	// The campaign, keyed to submission index:
	//   #50  n2 partitioned from the coordinator (heartbeats still
	//        flow: unreachable, not dead — forwards and status proxies
	//        to it fail until it heals at #80);
	//   #90  n3 goes zombie: heartbeats muted, server still routing.
	//        The fleet fences it and re-homes its jobs; its own journal
	//        writes bounce off the epoch fence;
	//   #140 n4 killed outright: partitioned AND muted;
	//   #150 a fresh node n5 joins mid-chaos to absorb the load.
	ids := make([]string, 0, numJobs)
	seed := make(map[string]int, numJobs)
	for i := 0; i < numJobs; i++ {
		switch i {
		case 50:
			part.Block(host(nodes["n2"]))
		case 80:
			part.Heal(host(nodes["n2"]))
		case 90:
			part.MuteHeartbeats("n3")
		case 140:
			part.Block(host(nodes["n4"]))
			part.MuteHeartbeats("n4")
		case 150:
			cfg := nodeCfg()
			journals["n5"] = cfg.JournalDir
			nodes["n5"] = startNode(t, "n5", ts.URL, cfg, agentClient,
				func() bool { return part.HeartbeatDropped("n5") })
		}
		st := submit(t, ts.URL, specs[i%numSeeds])
		if _, dup := seed[st.ID]; dup {
			t.Fatalf("job ID %s assigned twice", st.ID)
		}
		ids = append(ids, st.ID)
		seed[st.ID] = i % numSeeds
	}

	// Everything lands: done, audited, bit-identical to the oracle.
	for _, id := range ids {
		fin := waitJobDone(t, ts.URL, id, 60*time.Second)
		if fin.State != server.StateDone {
			t.Fatalf("job %s: %+v", id, fin)
		}
		if fin.AuditOK == nil || !*fin.AuditOK {
			t.Errorf("job %s finished without a clean audit: %+v", id, fin)
		}
		if want := wantFP[seed[id]]; fin.Fingerprint != want {
			t.Errorf("job %s fingerprint = %s, want %s", id, fin.Fingerprint, want)
		}
	}

	// The fenced nodes are fenced on disk, durably.
	for _, name := range []string{"n3", "n4"} {
		epoch, fenced, err := server.ReadEpoch(journals[name])
		if err != nil {
			t.Fatal(err)
		}
		if !fenced || epoch < 2 {
			t.Errorf("%s journal epoch = %d fenced=%v, want fenced at ≥2", name, epoch, fenced)
		}
	}

	// Zero duplication, zero loss, across every journal including the
	// fenced ones: each submitted job is committed done in exactly one
	// journal directory fleet-wide. (A zombie double-commit would show
	// up as two.)
	doneIn := make(map[string][]string)
	for name, dir := range journals {
		recs, err := server.LoadRecords(dir, func(path string, err error) {
			t.Errorf("%s: corrupt journal record %s: %v", name, path, err)
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.State == server.StateDone {
				doneIn[rec.ID] = append(doneIn[rec.ID], name)
			}
		}
	}
	for _, id := range ids {
		switch owners := doneIn[id]; len(owners) {
		case 1:
		case 0:
			t.Errorf("job %s reported done but committed in no journal", id)
		default:
			t.Errorf("job %s committed done on %d nodes (%v) — fencing violated",
				id, len(owners), owners)
		}
	}
}
