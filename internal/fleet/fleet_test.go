package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/boardio"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/stringer"
	"repro/internal/workload"
)

// buildSpec generates a small seeded board as a JobSpec; distinct
// seeds are distinct but reproducible routing problems.
func buildSpec(t *testing.T, seed int64) server.JobSpec {
	t.Helper()
	d, err := workload.Generate(workload.TinySpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := boardio.WriteDesign(&sb, d); err != nil {
		t.Fatal(err)
	}
	return server.JobSpec{Design: sb.String(), Options: map[string]int64{"checkpointevery": 1}}
}

// oracle routes spec directly — no daemon, no fleet — and returns the
// deterministic fingerprint every fleet path must reproduce.
func oracle(t *testing.T, spec server.JobSpec) uint64 {
	t.Helper()
	d, err := boardio.ReadDesign(strings.NewReader(spec.Design))
	if err != nil {
		t.Fatal(err)
	}
	strung, err := stringer.String(d, stringer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	for name, v := range spec.Options {
		if err := boardio.ApplyOption(&opts, name, v); err != nil {
			t.Fatal(err)
		}
	}
	snap := &boardio.Snapshot{
		Design: d, Conns: strung.Conns, Opts: opts,
		Check: &core.Checkpoint{
			PrevUnrouted: len(strung.Conns) + 1,
			Routes:       make([]core.ConnRoute, len(strung.Conns)),
		},
	}
	b, r, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	res := r.Route()
	if res.Aborted != core.AbortNone || !res.Complete() {
		t.Fatalf("oracle run did not complete: %v", res)
	}
	if err := b.Audit(); err != nil {
		t.Fatal(err)
	}
	return b.Fingerprint()
}

// fleetNode is one in-process worker: a real server.Server behind a
// real listener, with a running Agent.
type fleetNode struct {
	name   string
	srv    *server.Server
	ts     *httptest.Server
	cancel context.CancelFunc
}

// startNode boots a worker and joins it to the coordinator at coordURL.
func startNode(t *testing.T, name, coordURL string, cfg server.Config,
	client *http.Client, drop func() bool) *fleetNode {
	t.Helper()
	cfg.NodeName = name
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
		cfg.RetryMax = 20 * time.Millisecond
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	agent := NewAgent(AgentConfig{
		Node: name, Addr: ts.URL, Journal: cfg.JournalDir,
		Coordinator: coordURL, Server: s,
		Every:         20 * time.Millisecond,
		Client:        client,
		DropHeartbeat: drop,
	})
	go agent.Run(ctx)
	n := &fleetNode{name: name, srv: s, ts: ts, cancel: cancel}
	t.Cleanup(func() {
		n.cancel()
		n.ts.Close()
		// Drain before the test framework deletes the journal dir under a
		// still-running worker.
		dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
		n.srv.Drain(dctx)
		dcancel()
	})
	return n
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// submit posts a spec through the coordinator, retrying 429s (the
// fleet sheds load when saturated; a client that wants the job in just
// asks again).
func submit(t *testing.T, coordURL string, spec server.JobSpec) server.Status {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Post(coordURL+"/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		var st server.Status
		decodeErr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			if decodeErr != nil {
				t.Fatal(decodeErr)
			}
			return st
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			time.Sleep(10 * time.Millisecond)
		default:
			t.Fatalf("submit: unexpected status %d", resp.StatusCode)
		}
	}
	t.Fatal("submit: fleet never accepted the job")
	return server.Status{}
}

// coordStatus polls one job through the coordinator.
func coordStatus(t *testing.T, coordURL, id string) (server.Status, bool) {
	t.Helper()
	resp, err := http.Get(coordURL + "/jobs/" + id)
	if err != nil {
		return server.Status{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.Status{}, false
	}
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.Status{}, false
	}
	return st, true
}

func waitJobDone(t *testing.T, coordURL, id string, timeout time.Duration) server.Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st, ok := coordStatus(t, coordURL, id); ok && st.State.Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := coordStatus(t, coordURL, id)
	t.Fatalf("job %s never finished via the coordinator (last: %+v)", id, st)
	return server.Status{}
}

// TestWorkStealingRebalances: a node wedged on a long job with work
// queued behind it loses that queued work to an idle peer — through
// the coordinator's steal broker, not any worker-to-worker chatter —
// and the stolen job finishes on the thief with the oracle
// fingerprint.
func TestWorkStealingRebalances(t *testing.T) {
	c := New(Config{
		HeartbeatEvery: 25 * time.Millisecond,
		HeartbeatMiss:  40, // failover off: this test is about stealing, not fencing
	})
	ts := httptest.NewServer(c.Handler())
	defer func() {
		ts.Close()
		c.Close()
	}()

	spec := buildSpec(t, 7)
	want := oracle(t, spec)

	// Node "busy": worker pool of one, first job wedges mid-mutation.
	blk := faultinject.BlockAt(1)
	t.Cleanup(blk.Release)
	var first atomic.Bool
	busyCfg := server.Config{
		QueueDepth: 4, JournalDir: t.TempDir(),
		BoardHook: func(b *board.Board) {
			if first.CompareAndSwap(false, true) {
				b.Interpose(blk)
			}
		},
	}
	busy := startNode(t, "busy", ts.URL, busyCfg, nil, nil)

	if _, err := busy.srv.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, blk.Fired, "blocker never fired")
	queued, err := busy.srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// An idle peer joins; within a few sweeps the coordinator moves the
	// queued job over and it completes there.
	idle := startNode(t, "idle", ts.URL,
		server.Config{QueueDepth: 4, JournalDir: t.TempDir()}, nil, nil)

	fin := waitJobDone(t, ts.URL, queued.ID, 20*time.Second)
	blk.Release()
	if fin.State != server.StateDone {
		t.Fatalf("stolen job: %+v", fin)
	}
	if wantS := fmt.Sprintf("%016x", want); fin.Fingerprint != wantS {
		t.Errorf("stolen job fingerprint = %s, want %s", fin.Fingerprint, wantS)
	}
	// It ran on the thief: the donor's copy is handed_off, the thief's
	// is done.
	if st, ok := busy.srv.Status(queued.ID); !ok || st.State != server.StateHandedOff {
		t.Errorf("donor copy = %+v, want handed_off", st)
	}
	if st, ok := idle.srv.Status(queued.ID); !ok || st.State != server.StateDone {
		t.Errorf("thief copy = %+v, want done", st)
	}
}

// replyHook is a test transport: each request goes through, and hook,
// called before its reply reaches the coordinator, may hold the reply or
// lose it (a non-nil error).
type replyHook func(*http.Request) error

func (hook replyHook) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		if err = hook(req); err != nil {
			resp.Body.Close()
			resp = nil
		}
	}
	return resp, err
}

// startWedged starts node "busy" with one worker, wedged on its first
// job with a second queued behind it, and returns the node, its journal
// dir and the queued job. The test releases the wedge with blk.
func startWedged(t *testing.T, coordURL string, spec server.JobSpec, blk *faultinject.Blocker,
	drop func() bool) (*fleetNode, string, server.Status) {
	t.Helper()
	var first atomic.Bool
	journal := t.TempDir()
	busy := startNode(t, "busy", coordURL, server.Config{
		QueueDepth: 4, JournalDir: journal,
		BoardHook: func(b *board.Board) {
			if first.CompareAndSwap(false, true) {
				b.Interpose(blk)
			}
		},
	}, nil, drop)
	if _, err := busy.srv.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, blk.Fired, "blocker never fired")
	queued, err := busy.srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return busy, journal, queued
}

// doneIn counts the journals that hold job id done.
func doneIn(journals []string, id string) int {
	n := 0
	for _, dir := range journals {
		if rec, err := server.LoadRecord(dir, id); err == nil && rec.State == server.StateDone {
			n++
		}
	}
	return n
}

// TestStealAfterLostAnswer: a broker steal meets a lost or late answer
// on one of its two legs, and the job still finishes with the oracle
// fingerprint, done in exactly one journal.
//   - The steal's answer is lost: the donor has journaled the job
//     handed_off, and the coordinator holds no record. It asks again once
//     the donor answers, or reads the donor's journal once the donor is
//     fenced, and the job runs on the thief; the steal counts once.
//   - The handoff's answer comes only after the thief, which took the
//     job, is fenced. The thief's fence finds the job live in its journal
//     but in transit, and leaves it to the steal. The steal, answered at
//     last, holds the record in doubt on the thief and reads the thief's
//     journal: the job resumes on its donor, though the thief, a zombie,
//     still holds its copy.
func TestStealAfterLostAnswer(t *testing.T) {
	for _, tc := range []struct {
		name   string
		leg    string // the leg whose answer is lost or late
		fence  string // the node fenced, "" to let the answers through
		steals int64
	}{
		{"steal answer lost, the donor answers again", "steal", "", 1},
		{"steal answer lost, the donor is fenced", "steal", "busy", 1},
		{"handoff answer after the thief is fenced", "handoff", "idle", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			part := faultinject.NewPartition()
			late := make(chan struct{}) // closed to end the fault
			heal := sync.OnceFunc(func() { close(late) })
			c := New(Config{
				HeartbeatEvery: 25 * time.Millisecond,
				HeartbeatMiss:  40,
				Transport: replyHook(func(req *http.Request) error {
					switch {
					case tc.leg == "steal" && strings.HasPrefix(req.URL.Path, "/fleet/steal"):
						select {
						case <-late:
						default:
							return errors.New("steal reply lost")
						}
					case tc.leg == "handoff" && req.URL.Path == "/fleet/handoff":
						<-late
					}
					return nil
				}),
			})
			ts := httptest.NewServer(c.Handler())
			defer func() {
				heal()
				ts.Close()
				c.Close()
			}()
			spec := buildSpec(t, 7)
			want := oracleFP(t, spec)

			blk := faultinject.BlockAt(1)
			t.Cleanup(blk.Release)
			busy, journal, queued := startWedged(t, ts.URL, spec, blk,
				func() bool { return part.HeartbeatDropped("busy") })
			journals := []string{journal, t.TempDir()}
			cfg := server.Config{QueueDepth: 4, JournalDir: journals[1]}
			if tc.leg == "handoff" {
				// The thief wedges too, so the job is still live in its journal
				// when it is fenced.
				tblk := faultinject.BlockAt(1)
				t.Cleanup(tblk.Release)
				cfg.BoardHook = func(b *board.Board) { b.Interpose(tblk) }
			}
			idle := startNode(t, "idle", ts.URL, cfg, nil, func() bool { return part.HeartbeatDropped("idle") })
			if tc.leg == "steal" {
				waitFor(t, 10*time.Second, func() bool {
					c.mu.Lock()
					defer c.mu.Unlock()
					tr, ok := c.transits[queued.ID]
					return ok && !tr.busy && tr.rec == nil
				}, "no steal answer was lost")
			} else {
				waitFor(t, 10*time.Second, func() bool {
					st, _ := idle.srv.Status(queued.ID)
					return st.State == server.StateRunning
				}, "the thief never ran the job")
			}
			if st, _ := busy.srv.Status(queued.ID); st.State != server.StateHandedOff {
				t.Fatalf("donor copy = %+v: the steal did not land", st)
			}
			if tc.fence != "" {
				part.MuteHeartbeats(tc.fence)
				waitFor(t, 10*time.Second, func() bool {
					return slices.ContainsFunc(c.Nodes(), func(n NodeView) bool { return n.Name == tc.fence && n.Fenced })
				}, tc.fence+" was never fenced")
				// The sweep that fenced it reads its journal before it sweeps
				// again; let it.
				time.Sleep(10 * c.cfg.HeartbeatEvery)
			}
			heal()
			blk.Release()

			fin := waitJobDone(t, ts.URL, queued.ID, 30*time.Second)
			if fin.State != server.StateDone || fin.Fingerprint != want {
				t.Fatalf("stolen job = %+v, want done @ %s", fin, want)
			}
			if n := c.obs.steals.Value(); n != tc.steals {
				t.Errorf("grr_fleet_steals_total = %d, want %d", n, tc.steals)
			}
			if n := doneIn(journals, queued.ID); n != 1 {
				t.Errorf("the job is done in %d journals, want 1", n)
			}
		})
	}
}

// TestMergeJobsIgnoresHandedOffCopy: after a steal the donor still
// lists the job as handed_off while the thief runs it, and GET /jobs
// asks the nodes in map order. The fleet-wide list must show the
// thief's copy in either order; otherwise a later copy still replaces
// an earlier one, and a job known only as handed_off stays listed.
func TestMergeJobsIgnoresHandedOffCopy(t *testing.T) {
	donor := server.Status{ID: "job-busy-000001", State: server.StateHandedOff}
	thief := server.Status{ID: "job-busy-000001", State: server.StateRunning}
	for _, copies := range [][]server.Status{{donor, thief}, {thief, donor}} {
		if got := mergeJobs(copies); len(got) != 1 || got[0] != thief {
			t.Errorf("merging %v = %v, want the thief's copy %v", copies, got, thief)
		}
	}

	pending := server.Status{ID: "job-a-000002", State: server.StateQueued}
	live := server.Status{ID: "job-a-000002", State: server.StateDone}
	alone := server.Status{ID: "job-a-000003", State: server.StateHandedOff}
	got := mergeJobs([]server.Status{alone, pending, live})
	if want := []server.Status{live, alone}; !slices.Equal(got, want) {
		t.Errorf("merge = %v, want %v", got, want)
	}
}

// TestCoordinatorDegradesToRetryAfter: with every node gone saturated
// — or no nodes at all — the coordinator sheds load like a single
// busy grrd: 429 with a Retry-After, never a hang or a 500.
func TestCoordinatorDegradesToRetryAfter(t *testing.T) {
	c := New(Config{HeartbeatEvery: 25 * time.Millisecond})
	ts := httptest.NewServer(c.Handler())
	defer func() {
		ts.Close()
		c.Close()
	}()

	body, _ := json.Marshal(buildSpec(t, 3))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit with no nodes = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("empty-fleet readyz = %d, want 503", rz.StatusCode)
	}
}

// TestStatusSkipsFencedOwner: a status query for a job whose owner is
// fenced answers 503 (failover in progress) without asking the owner. A
// fenced node's own view of the job — "failed: journal fenced" — is not
// the job's result, and caching it would shadow the copy re-homed on a
// peer.
func TestStatusSkipsFencedOwner(t *testing.T) {
	const id = "job-z-000001"
	var asked atomic.Int64
	zombie := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		asked.Add(1)
		json.NewEncoder(w).Encode(server.Status{ID: id, State: server.StateFailed, Error: "server: journal fenced"})
	}))
	defer zombie.Close()
	c := New(Config{HeartbeatEvery: time.Hour})
	defer c.Close()
	c.mu.Lock()
	c.nodes["z"] = &node{Name: "z", Addr: zombie.URL, Fenced: true, lastBeat: time.Now()}
	c.jobs[id] = &jobEntry{node: "z"}
	c.mu.Unlock()

	rr := httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/jobs/"+id, nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("GET /jobs/%s = %d %s, want 503", id, rr.Code, strings.TrimSpace(rr.Body.String()))
	}
	if n := asked.Load(); n != 0 {
		t.Errorf("the fenced owner was asked %d times", n)
	}
	c.mu.Lock()
	st := c.jobs[id].result
	c.mu.Unlock()
	if st != nil {
		t.Errorf("the fenced owner's view was cached as the result: %+v", *st)
	}
}
