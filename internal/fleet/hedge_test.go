package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

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
