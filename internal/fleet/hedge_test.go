package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// fakeNode stands in for a grrd on the coordinator's fleet calls: a
// steal hands out its one record (then 204), every handoff is adopted,
// and status queries and cancels are counted.
type fakeNode struct {
	ts      *httptest.Server
	steal   atomic.Pointer[[]byte]
	asked   atomic.Int64
	cancels atomic.Int64
}

func newFakeNode(t *testing.T) *fakeNode {
	f := &fakeNode{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/steal", func(w http.ResponseWriter, r *http.Request) {
		rec := f.steal.Swap(nil)
		if rec == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		w.Write(*rec)
	})
	mux.HandleFunc("POST /fleet/handoff", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		f.asked.Add(1)
		json.NewEncoder(w).Encode(server.Status{ID: r.PathValue("id"), State: server.StateRunning})
	})
	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		f.cancels.Add(1)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// hedgeRecord routes spec on a real grrd and returns its journal record
// rewritten as a queued hedge copy (token 2): the record a node holding
// the hedge copy hands over when the copy is stolen or recovered.
func hedgeRecord(t *testing.T, spec server.JobSpec) *server.Job {
	t.Helper()
	dir := t.TempDir()
	s, err := server.New(server.Config{JournalDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		cur, _ := s.Status(st.ID)
		return cur.State.Terminal()
	}, "the record's job never finished")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	s.Drain(ctx)
	rec, err := server.LoadRecord(dir, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	rec.State, rec.HedgeToken = server.StateQueued, tokenHedge
	return rec
}

// TestMovedHedgeCopyKeepsPrimary: a job's primary copy runs on P and
// its hedge copy on D, and the hedge copy moves to T — stolen, or
// re-homed from D's journal after D is fenced. The job's entry must
// keep P as the primary and name T as the hedge: a status query asks P
// until a copy claims the commit, and when T's claim wins, P's copy is
// the one cancelled, never D's (it is gone) or T's (it won).
func TestMovedHedgeCopyKeepsPrimary(t *testing.T) {
	rec := hedgeRecord(t, buildSpec(t, 5))
	var buf bytes.Buffer
	if err := rec.EncodeRecord(&buf); err != nil {
		t.Fatal(err)
	}
	ready := func(live int) server.Load {
		return server.Load{Health: server.HealthReady, Live: live, Slots: 4}
	}

	for _, move := range []string{"steal", "fence"} {
		t.Run(move, func(t *testing.T) {
			c := New(Config{HeartbeatEvery: time.Hour})
			defer c.Close()
			nodes := map[string]*fakeNode{"P": newFakeNode(t), "D": newFakeNode(t), "T": newFakeNode(t)}
			dJournal := t.TempDir()
			// P runs the primary and is slow, which is why the job was
			// hedged; D is full with the hedge copy queued; T is idle, so
			// it is both the thief and the first candidate.
			loads := map[string]server.Load{
				"P": ready(1),
				"D": {Health: server.HealthSaturated, Live: 4, Queued: 1, Slots: 4},
				"T": ready(0),
			}
			for _, name := range []string{"P", "D", "T"} {
				if err := c.Join(name, nodes[name].ts.URL, t.TempDir(), 1, loads[name]); err != nil {
					t.Fatal(err)
				}
			}
			c.mu.Lock()
			c.nodes["P"].Slow = true
			c.nodes["D"].Journal = dJournal
			c.mu.Unlock()
			c.moveCopy(rec.ID, "P", tokenPrimary, time.Time{}, time.Now())
			c.moveCopy(rec.ID, "D", tokenHedge, time.Time{}, time.Time{})

			switch move {
			case "steal":
				b := bytes.Clone(buf.Bytes())
				nodes["D"].steal.Store(&b)
				c.stealOnce()
			case "fence":
				if err := server.SaveRecord(dJournal, rec); err != nil {
					t.Fatal(err)
				}
				c.mu.Lock()
				d := c.nodes["D"]
				d.Fenced = true
				c.mu.Unlock()
				c.fence(d)
				c.deliverPending()
			}

			c.mu.Lock()
			copies := c.jobs[rec.ID].copies
			c.mu.Unlock()
			if want := [2]string{"P", "T"}; copies != want {
				t.Fatalf("after the %s, copies = %q, want primary P and hedge T %q", move, copies, want)
			}

			status := func() {
				t.Helper()
				rr := httptest.NewRecorder()
				c.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/jobs/"+rec.ID, nil))
				if rr.Code != http.StatusOK {
					t.Fatalf("GET /jobs/%s = %d %s", rec.ID, rr.Code, rr.Body.String())
				}
			}
			status()
			if p, tn := nodes["P"].asked.Load(), nodes["T"].asked.Load(); p != 1 || tn != 0 {
				t.Errorf("before any claim, status asked P %d and T %d times, want the primary once", p, tn)
			}

			if !c.Claim(rec.ID, "T", tokenHedge) {
				t.Fatal("the first claim lost")
			}
			waitFor(t, 5*time.Second, func() bool { return nodes["P"].cancels.Load() > 0 },
				"the primary's node P never got the loser's cancel")
			for _, name := range []string{"D", "T"} {
				if n := nodes[name].cancels.Load(); n != 0 {
					t.Errorf("%s got %d cancels, want 0", name, n)
				}
			}
			status()
			if n := nodes["T"].asked.Load(); n != 1 {
				t.Errorf("after T's claim, status asked T %d times, want the winner once", n)
			}
		})
	}
}

// TestUpdateSlow walks updateSlow through scripted heartbeats, one
// sweep per step, and checks which nodes hold the slow latch after
// each, and what the sweep logged. Queue waits and disk-write latencies
// are in milliseconds.
func TestUpdateSlow(t *testing.T) {
	type reading struct{ qw, dw float64 }
	type step struct {
		loads  map[string]reading // alive nodes and their readings
		fenced []string           // nodes fenced before the sweep
		slow   []string           // latched after the sweep, in name order
		log    []string           // fields the sweep's log must carry
	}
	flat := func(dw float64) map[string]reading {
		return map[string]reading{"a": {dw: 2}, "b": {dw: 2}, "c": {dw: 2}, "d": {dw: dw}}
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"two nodes never latch", []step{
			{loads: map[string]reading{"a": {qw: 10}, "b": {qw: 100}}},
			{loads: map[string]reading{"a": {qw: 10, dw: 1}, "b": {qw: 1000, dw: 50}}},
		}},
		{"four nodes latch a disk outlier and clear below half the threshold", []step{
			{loads: flat(30), slow: []string{"d"}, log: []string{
				"node=d slow=true signal=disk ", "disk_ms=30.0 disk_median_ms=2.0 disk_threshold_ms=6.0"}},
			{loads: flat(5), slow: []string{"d"}},                         // above 6/2: hysteresis holds
			{loads: flat(2.5), log: []string{"node=d slow=false fwd_ms"}}, // below 6/2: cleared
		}},
		{"readings under the floor never latch", []step{
			{loads: map[string]reading{"a": {dw: 0.1}, "b": {dw: 0.1}, "c": {dw: 0.1}, "d": {dw: 0.9}}},
		}},
		{"a signal two nodes report has no baseline", []step{
			{loads: map[string]reading{"a": {qw: 10, dw: 2}, "b": {dw: 2}, "c": {dw: 2}, "d": {qw: 500, dw: 2}}},
		}},
		{"a latch clears once too few peers remain", []step{
			{loads: flat(30), slow: []string{"d"}},
			{loads: flat(30), fenced: []string{"b"}, slow: []string{"d"}},
			{loads: flat(30), fenced: []string{"c"}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var log bytes.Buffer
			c := New(Config{HeartbeatEvery: time.Hour, Log: obs.NewLogger(&log)})
			defer c.Close()
			for i, st := range tc.steps {
				c.mu.Lock()
				for name, r := range st.loads {
					n := c.nodes[name]
					if n == nil {
						n = &node{Name: name}
						c.nodes[name] = n
					}
					n.Load = server.Load{Health: server.HealthReady, QueueWaitMs: r.qw, DiskWriteMs: r.dw}
				}
				for _, name := range st.fenced {
					c.nodes[name].Fenced = true
				}
				c.mu.Unlock()

				log.Reset()
				c.updateSlow()
				for _, want := range st.log {
					if !strings.Contains(log.String(), want) {
						t.Errorf("step %d: log lacks %q:\n%s", i, want, log.String())
					}
				}

				c.mu.Lock()
				var slow []string
				for _, name := range []string{"a", "b", "c", "d"} {
					if n := c.nodes[name]; n != nil && n.Slow {
						slow = append(slow, name)
					}
				}
				c.mu.Unlock()
				if fmt.Sprint(slow) != fmt.Sprint(st.slow) {
					t.Errorf("step %d: slow nodes %v, want %v", i, slow, st.slow)
				}
			}
		})
	}
}
