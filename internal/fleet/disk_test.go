package fleet

import (
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/simfs"
)

// TestFleetRoutesAroundDiskDegradedNode: a node whose journal disk
// goes ENOSPC mid-run must not become a black hole. The coordinator —
// told via the heartbeat's Health — routes new submissions to healthy
// peers, steals the stuck node's queued jobs whenever the peer has an
// idle worker, and once the injection clears, the node self-probes back
// to ready and finishes its parked job locally. Every job lands on its
// oracle fingerprint.
func TestFleetRoutesAroundDiskDegradedNode(t *testing.T) {
	inj := simfs.NewInjectFS(nil)
	prevFS := simfs.Swap(inj)
	t.Cleanup(func() { simfs.Swap(prevFS) })

	c := New(Config{
		HeartbeatEvery: 25 * time.Millisecond,
		HeartbeatMiss:  40, // failover off: this test is about disk posture, not fencing
	})
	ts := httptest.NewServer(c.Handler())
	defer func() {
		ts.Close()
		c.Close()
	}()

	specs := make([]server.JobSpec, 4)
	oracles := make([]string, 4)
	for i := range specs {
		specs[i] = buildSpec(t, int64(71+i))
		oracles[i] = fmt.Sprintf("%016x", oracle(t, specs[i]))
	}

	// Node "bravo": worker pool of one; the first job wedges mid-route so
	// more work can queue behind it before the disk fault lands.
	bravoDir := t.TempDir()
	blk := faultinject.BlockAt(1)
	t.Cleanup(blk.Release)
	var first atomic.Bool
	bravo := startNode(t, "bravo", ts.URL, server.Config{
		QueueDepth: 4, JournalDir: bravoDir,
		DiskProbeEvery: 25 * time.Millisecond,
		BoardHook: func(b *board.Board) {
			if first.CompareAndSwap(false, true) {
				b.Interpose(blk)
			}
		},
	}, nil, nil)

	wedged, err := bravo.srv.Submit(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, blk.Fired, "blocker never fired")
	q1, err := bravo.srv.Submit(specs[1])
	if err != nil {
		t.Fatal(err)
	}
	q2, err := bravo.srv.Submit(specs[2])
	if err != nil {
		t.Fatal(err)
	}

	// Kill bravo's journal disk (only bravo's: rules match by path), then
	// let the wedged job run into it — its next checkpoint write latches
	// the degraded posture and parks the job.
	inj.Arm(&simfs.Rule{Op: simfs.OpCreate, Path: bravoDir, Sticky: true, Err: syscall.ENOSPC})
	blk.Release()
	waitFor(t, 10*time.Second, bravo.srv.DiskDegraded, "bravo never latched disk-degraded")

	// A healthy peer joins. The coordinator must see bravo's posture...
	alpha := startNode(t, "alpha", ts.URL, server.Config{
		QueueDepth: 4, JournalDir: t.TempDir(),
	}, nil, nil)
	nodeView := func(name string) (server.Load, bool) {
		for _, n := range c.Nodes() {
			if n.Name == name {
				return n.Load, true
			}
		}
		return server.Load{}, false
	}
	waitFor(t, 10*time.Second, func() bool {
		bl, bok := nodeView("bravo")
		_, aok := nodeView("alpha")
		return bok && aok && bl.Health == server.HealthDiskDegraded
	}, "coordinator never saw bravo as disk_degraded")

	// ...route new submissions around it...
	routed := submit(t, ts.URL, specs[3])
	fin := waitJobDone(t, ts.URL, routed.ID, 20*time.Second)
	if fin.State != server.StateDone || fin.Fingerprint != oracles[3] {
		t.Fatalf("routed-around job = %+v, want done @ %s", fin, oracles[3])
	}
	if _, ok := bravo.srv.Status(routed.ID); ok {
		t.Error("submission was routed to the disk-degraded node")
	}
	if st, ok := alpha.srv.Status(routed.ID); !ok || st.State != server.StateDone {
		t.Errorf("healthy peer does not own the routed job: %+v", st)
	}

	// ...and steal its queued jobs, which finish on the healthy peer.
	for i, q := range []server.Status{q1, q2} {
		fin := waitJobDone(t, ts.URL, q.ID, 20*time.Second)
		if fin.State != server.StateDone || fin.Fingerprint != oracles[i+1] {
			t.Fatalf("stolen job %s = %+v, want done @ %s", q.ID, fin, oracles[i+1])
		}
		if st, ok := bravo.srv.Status(q.ID); !ok || st.State != server.StateHandedOff {
			t.Errorf("donor copy of %s = %+v, want handed_off", q.ID, st)
		}
		if st, ok := alpha.srv.Status(q.ID); !ok || st.State != server.StateDone {
			t.Errorf("thief copy of %s = %+v, want done", q.ID, st)
		}
	}

	// Clear the injection: bravo's self-probe heals the posture with no
	// restart, the parked job finishes — unparked locally, or already
	// stolen to the healthy peer, both with the oracle result — and the
	// coordinator sees the node ready again. The job was submitted
	// straight to bravo, so the coordinator knows it only if it stole
	// it: wait on whichever node holds it.
	inj.Disarm()
	waitFor(t, 10*time.Second, func() bool { return !bravo.srv.DiskDegraded() }, "bravo never recovered")
	waitFor(t, 20*time.Second, func() bool {
		for _, n := range []*fleetNode{bravo, alpha} {
			if st, ok := n.srv.Status(wedged.ID); ok && st.State.Terminal() {
				fin = st
				return true
			}
		}
		return false
	}, "the parked job never finished on either node")
	if fin.State != server.StateDone || fin.Fingerprint != oracles[0] {
		t.Fatalf("parked job after heal = %+v, want done @ %s", fin, oracles[0])
	}
	waitFor(t, 10*time.Second, func() bool {
		bl, ok := nodeView("bravo")
		return ok && bl.Health == server.HealthReady
	}, "coordinator never saw bravo return to ready")
}
