package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// TestCandidateOrderDeterministic pins the placement contract:
// candidates() returns ready nodes, then saturated ones; within each
// tier fewer jobs in flight come first, then the shorter latest
// attempt time of the node's last heartbeat (a node with no attempt yet
// first), then the node name; and the order is identical on every call.
// "In flight" is the live count of the node's last heartbeat plus the
// jobs delivered there since, so a delivery moves a node back and its
// next heartbeat clears the count. Two coordinators looking at the same
// fleet must walk candidates in the same order, or placement (and move
// targeting) diverges between them. Each node is ranked by its own
// numbers: a journal-write latency far off its peers' moves no node.
func TestCandidateOrderDeterministic(t *testing.T) {
	c := New(Config{HeartbeatEvery: time.Hour})
	defer c.Close()

	mk := func(name string, health string, live int, attemptMs float64, fenced bool) *node {
		return &node{
			Name: name, Load: server.Load{Health: health, Live: live, AttemptMs: attemptMs},
			Fenced: fenced, lastBeat: time.Now(),
		}
	}
	c.mu.Lock()
	for _, n := range []*node{
		mk("alpha", server.HealthReady, 1, 40, false),
		mk("bravo", server.HealthReady, 0, 90, false),
		mk("charlie", server.HealthReady, 1, 40, false), // ties alpha on both: the name decides
		mk("dora", server.HealthReady, 1, 0, false),     // no attempt yet: first among its ties
		mk("erin", server.HealthReady, 1, 25, false),    // shorter attempts than alpha and charlie
		mk("delta", server.HealthSaturated, 0, 0, false),
		mk("echo", server.HealthReady, 0, 0, true), // fenced: excluded
		mk("foxtrot", server.HealthDraining, 0, 0, false),
		mk("golf", server.HealthDiskDegraded, 0, 0, false),
	} {
		c.nodes[n.Name] = n
	}
	c.mu.Unlock()

	expect := func(when string, want ...string) {
		t.Helper()
		for call := 0; call < 3; call++ { // byte-for-byte repeatable
			var got []string
			for _, n := range c.candidates() {
				got = append(got, n.Name)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s, call %d: candidates = %v, want %v", when, call, got, want)
			}
		}
	}

	expect("by heartbeat load", "bravo", "dora", "erin", "alpha", "charlie", "delta")

	// Two deliveries to bravo since its last heartbeat put it behind
	// the nodes with one job in flight.
	c.moveJob("job-a", "bravo", time.Time{}, time.Now())
	c.moveJob("job-b", "bravo", time.Time{}, time.Time{})
	expect("after two deliveries to bravo", "dora", "erin", "alpha", "charlie", "bravo", "delta")

	// One delivery to alpha ties it with bravo, whose attempts run longer.
	c.moveJob("job-c", "alpha", time.Time{}, time.Now())
	expect("after one delivery to alpha", "dora", "erin", "charlie", "alpha", "bravo", "delta")

	// bravo's heartbeat reports both jobs live and clears its count...
	if err := c.Heartbeat("bravo", 0, server.Load{Health: server.HealthReady, Live: 2, AttemptMs: 90}); err != nil {
		t.Fatal(err)
	}
	expect("after bravo's heartbeat", "dora", "erin", "charlie", "alpha", "bravo", "delta")
	// ...and the next one, with both finished, brings it to the front.
	if err := c.Heartbeat("bravo", 0, server.Load{Health: server.HealthReady, AttemptMs: 90}); err != nil {
		t.Fatal(err)
	}
	expect("after bravo finished both", "bravo", "dora", "erin", "charlie", "alpha", "delta")

	// Four idle ready nodes, one of them writing its journal at 17.0 ms
	// against its peers' 2.9 ms: a sweep leaves them in name order.
	idle := New(Config{HeartbeatEvery: time.Hour})
	defer idle.Close()
	for _, name := range []string{"n1", "n2", "n3", "n4"} {
		l := server.Load{Health: server.HealthReady, Workers: 1, DiskWriteMs: 2.9}
		if name == "n1" {
			l.DiskWriteMs = 17.0
		}
		if err := idle.Join(name, "http://"+name, "/"+name, 1, l); err != nil {
			t.Fatal(err)
		}
		if err := idle.Heartbeat(name, 1, l); err != nil {
			t.Fatal(err)
		}
	}
	idle.sweep()
	var got []string
	for _, n := range idle.candidates() {
		got = append(got, n.Name)
	}
	if want := []string{"n1", "n2", "n3", "n4"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("after a sweep, candidates = %v, want %v", got, want)
	}
}

// TestHealthyFleetPlacesByQueue: identical one-worker nodes, one
// closed-loop client each, are ranked by jobs in flight and never by a
// comparison with their peers. Every 5 ms the test reads each ready
// node's jobs in flight, calls candidates() and reads them again; where
// the two reads agree, a ready node ranked behind a ready node with
// more jobs in flight is an inversion, and there must be none. Every
// node places at least 2/3 of its fair share of the jobs, and every job
// is done with its oracle fingerprint in exactly one journal.
func TestHealthyFleetPlacesByQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("healthy-fleet soak; run without -short")
	}
	specs := make([]server.JobSpec, 3)
	wantFP := make([]string, len(specs))
	for i := range specs {
		specs[i] = buildSpec(t, int64(900+i))
		specs[i].Options = nil // grrd's default checkpoint cadence
		wantFP[i] = oracleFP(t, specs[i])
	}
	for _, size := range []int{3, 4} {
		t.Run(fmt.Sprintf("%d nodes", size), func(t *testing.T) {
			runHealthyFleet(t, size, 3*time.Second, specs, wantFP)
		})
	}
}

func runHealthyFleet(t *testing.T, size int, runFor time.Duration, specs []server.JobSpec, wantFP []string) {
	c := New(Config{
		HeartbeatEvery: 25 * time.Millisecond,
		HeartbeatMiss:  40, // nobody dies in this test
	})
	ts := httptest.NewServer(c.Handler())
	defer func() {
		ts.Close()
		c.Close()
	}()
	journals := make([]string, size)
	for i := range journals {
		journals[i] = t.TempDir()
		startNode(t, fmt.Sprintf("n%d", i+1), ts.URL, server.Config{JournalDir: journals[i]}, nil, nil)
	}
	waitFor(t, 10*time.Second, func() bool { return len(c.candidates()) == size }, "fleet never assembled")

	var (
		mu     sync.Mutex
		placed = map[string]int{} // jobs placed per node
		ids    []string
		wg     sync.WaitGroup
	)
	stop := time.Now().Add(runFor)
	for cl := 0; cl < size; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := cl; time.Now().Before(stop); i++ {
				k := i % len(specs)
				st, on, err := closedLoopJob(ts.URL, specs[k])
				if err != nil {
					t.Error(err)
					return
				}
				if st.State != server.StateDone || st.Fingerprint != wantFP[k] {
					t.Errorf("job %s = %+v, want done @ %s", st.ID, st, wantFP[k])
				}
				mu.Lock()
				placed[on]++
				ids = append(ids, st.ID)
				mu.Unlock()
			}
		}(cl)
	}

	ready := func() map[string]int {
		c.mu.Lock()
		defer c.mu.Unlock()
		m := make(map[string]int, len(c.nodes))
		for _, n := range c.nodes {
			if n.alive() && n.Load.Health == server.HealthReady {
				m[n.Name] = n.inFlight()
			}
		}
		return m
	}
	samples, inverted := 0, 0
	for time.Now().Before(stop) {
		before := ready()
		cands := c.candidates()
		if maps.Equal(before, ready()) {
			samples++
			for i, a := range cands {
				for _, b := range cands[i+1:] {
					fa, aok := before[a.Name]
					fb, bok := before[b.Name]
					if aok && bok && fa > fb {
						if inverted == 0 {
							t.Errorf("%s (%d in flight) ranked behind %s (%d in flight)", b.Name, fb, a.Name, fa)
						}
						inverted++
					}
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
	if inverted > 0 {
		t.Errorf("%d inverted pairs in %d samples", inverted, samples)
	}

	total := len(ids)
	t.Logf("%d nodes: %d jobs, placed %v; %d steals, %d moves, %d handoffs; %d samples",
		size, total, placed, c.obs.steals.Value(), c.obs.moves.Value(), c.obs.handoffs.Value(), samples)
	for i := 1; i <= size; i++ {
		name := fmt.Sprintf("n%d", i)
		if 3*size*placed[name] < 2*total {
			t.Errorf("%s placed %d of %d jobs, under 2/3 of its fair share", name, placed[name], total)
		}
	}
	done := map[string]int{}
	for _, dir := range journals {
		recs, err := server.LoadRecords(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.State == server.StateDone {
				done[rec.ID]++
			}
		}
	}
	for _, id := range ids {
		if done[id] != 1 {
			t.Errorf("job %s is done in %d journals, want 1", id, done[id])
		}
	}
}

// closedLoopJob submits spec through the coordinator at coordURL,
// retrying its 429s, and polls the job until it settles. It returns the
// job's terminal status and the node it was placed on. Unlike submit
// and waitJobDone it reports failure as an error, so a client goroutine
// can call it.
func closedLoopJob(coordURL string, spec server.JobSpec) (server.Status, string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return server.Status{}, "", err
	}
	deadline := time.Now().Add(30 * time.Second)
	var st server.Status
	var on string
	for on == "" {
		if time.Now().After(deadline) {
			return st, "", fmt.Errorf("the fleet never accepted the job")
		}
		resp, err := http.Post(coordURL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return st, "", err
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusAccepted && err == nil:
			on = resp.Header.Get("X-Grr-Node")
		case resp.StatusCode == http.StatusTooManyRequests:
			time.Sleep(10 * time.Millisecond)
		default:
			return st, "", fmt.Errorf("submit: status %d (%v)", resp.StatusCode, err)
		}
	}
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			return st, on, fmt.Errorf("job %s never finished (last: %+v)", st.ID, st)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(coordURL + "/jobs/" + st.ID)
		if err != nil {
			return st, on, err
		}
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&st)
		}
		resp.Body.Close()
		if err != nil {
			return st, on, err
		}
	}
	return st, on, nil
}
