package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/faultinject"
)

// blockFirstJob wires a blocker into cfg so the FIRST job's first
// segment placement wedges until released — the deterministic way to
// hold one job running while others queue behind it.
func blockFirstJob(cfg *Config) *faultinject.Blocker {
	blk := faultinject.BlockAt(1)
	var first atomic.Bool
	cfg.BoardHook = func(b *board.Board) {
		if first.CompareAndSwap(false, true) {
			b.Interpose(blk)
		}
	}
	return blk
}

// TestStealAndAdoptResume: the node-side halves of work stealing. A
// queued job stolen from one server is journaled handed_off there
// (never to run locally again, even across a restart), and adopting
// its record on a second server finishes it with the baseline
// fingerprint — the handoff moved the job, bit-identically, without
// either node knowing about the other.
func TestStealAndAdoptResume(t *testing.T) {
	cfgA := testConfig(t)
	cfgA.QueueDepth = 4
	blk := blockFirstJob(&cfgA)
	a, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}

	spec := testSpec(t, 5, nil)
	wantFP, wantM := baseline(t, spec, cfgA)

	if _, err := a.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitCond(t, blk.Fired, "blocker never fired")
	st2, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st3, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Load names the newest queued job (LIFO), and the handoff is durable
	// before the record leaves the building.
	if l := a.Load(); l.Steal != st3.ID {
		t.Fatalf("Load names %q for a steal, want %s", l.Steal, st3.ID)
	}
	rec, _, err := a.StealJob(st3.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.ID != st3.ID {
		t.Fatalf("stole %+v, want %s", rec, st3.ID)
	}
	if st, _ := a.Status(st3.ID); st.State != StateHandedOff {
		t.Fatalf("donor-side state = %s, want %s", st.State, StateHandedOff)
	}
	onDisk, err := LoadRecords(cfgA.JournalDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range onDisk {
		if j.ID == st3.ID {
			found = true
			if j.State != StateHandedOff {
				t.Errorf("journaled state = %s, want %s", j.State, StateHandedOff)
			}
		}
	}
	if !found {
		t.Fatalf("stolen job %s missing from donor journal", st3.ID)
	}

	// Adopt on a second, unrelated server: the job keeps its identity
	// and finishes exactly like an unmoved run.
	cfgB := testConfig(t)
	cfgB.NodeName = "b"
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := b.Adopt(rec)
	if err != nil {
		t.Fatal(err)
	}
	if adopted.ID != st3.ID {
		t.Fatalf("adopted ID = %s, want %s", adopted.ID, st3.ID)
	}
	fin := waitTerminal(t, b, st3.ID)
	if fin.State != StateDone || fin.Fingerprint != fingerprintString(wantFP) {
		t.Fatalf("adopted job finished %+v, want done with fingerprint %s",
			fin, fingerprintString(wantFP))
	}
	if *fin.Metrics != wantM {
		t.Errorf("adopted metrics diverged:\n got  %+v\n want %+v", *fin.Metrics, wantM)
	}

	// A second adoption of the same record is a duplicate, not a requeue.
	if _, err := b.Adopt(rec); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("re-adopt err = %v, want ErrDuplicate", err)
	}

	// The donor still runs everything it did not give away, and skips
	// the stolen job's stale queue entry.
	blk.Release()
	if fin := waitTerminal(t, a, st2.ID); fin.State != StateDone {
		t.Fatalf("remaining queued job: %+v", fin)
	}
	if st, _ := a.Status(st3.ID); st.State != StateHandedOff {
		t.Fatalf("stolen job ran on the donor after all: %+v", st)
	}
	drainServer(t, a)

	// Across a donor restart the handed-off job stays handed off:
	// recovery requeues live jobs, and this one is not live here.
	a2, err := New(Config{
		Workers: 1, QueueDepth: 4, JournalDir: cfgA.JournalDir,
		RetryBase: time.Millisecond, RetryMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := a2.Status(st3.ID); !ok || st.State != StateHandedOff {
		t.Fatalf("after restart, stolen job = %+v, want visible handed_off", st)
	}
	drainServer(t, a2)
	drainServer(t, b)
}

// TestStealNothingQueued: a server with no jobs, or only a running one,
// has nothing waiting, so its Load names no job to steal.
func TestStealNothingQueued(t *testing.T) {
	cfg := testConfig(t)
	blk := blockFirstJob(&cfg)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s)
	defer blk.Release()
	if l := s.Load(); l.Steal != "" {
		t.Fatalf("an empty server names %q for a steal", l.Steal)
	}
	if _, err := s.Submit(testSpec(t, 5, nil)); err != nil {
		t.Fatal(err)
	}
	waitCond(t, blk.Fired, "blocker never fired")
	if l := s.Load(); l.Steal != "" || l.Running != 1 {
		t.Fatalf("a server running its one job reports %+v, want it running and naming no job", l)
	}
}

// TestStealJobStopsRunningAttempt: a steal by ID of a running job
// cancels its attempt, which stops at the router's next abort check and
// takes the steal edge as it unwinds. The returned record is the
// handed_off record already durable in the donor's journal, checkpoint
// included, and a peer that adopts it finishes the job bit-identically
// to an unmoved run: exactly one journal holds done.
func TestStealJobStopsRunningAttempt(t *testing.T) {
	cfgA := testConfig(t)
	blk := faultinject.BlockAt(6) // past the first checkpoints
	cfgA.BoardHook = func(b *board.Board) { b.Interpose(blk) }
	a, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, a)
	defer blk.Release()
	spec := testSpec(t, 5, map[string]int64{"checkpointevery": 1})
	wantFP, wantM := baseline(t, spec, cfgA)
	st, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, blk.Fired, "blocker never fired")

	type stolen struct {
		rec *Job
		err error
	}
	got := make(chan stolen, 1)
	go func() {
		rec, _, err := a.StealJob(st.ID)
		got <- stolen{rec, err}
	}()
	waitCond(t, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return atStolen.holds(a.jobs[st.ID])
	}, "StealJob never marked the running attempt")
	blk.Release()
	var r stolen
	select {
	case r = <-got:
	case <-time.After(20 * time.Second):
		t.Fatal("StealJob never returned")
	}
	if r.err != nil || r.rec == nil || r.rec.State != StateHandedOff {
		t.Fatalf("StealJob = %+v, %v; want the handed_off record", r.rec, r.err)
	}
	if cp := r.rec.Snapshot().Check; cp.Pass == 0 && cp.NextPos == 0 {
		t.Error("the moved record carries no routing progress")
	}
	var want bytes.Buffer
	if err := r.rec.EncodeRecord(&want); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(journalPath(cfgA.JournalDir, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want.Bytes()) {
		t.Errorf("the donor's journal does not hold the record that left:\n%s", onDisk)
	}
	if l := a.Load(); l.Live != 0 || l.Running != 0 {
		t.Errorf("donor Load = %+v, want nothing live or running", l)
	}

	cfgB := testConfig(t)
	cfgB.NodeName = "b"
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, b)
	if _, err := b.Adopt(r.rec); err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, b, st.ID)
	if fin.State != StateDone || fin.Fingerprint != fingerprintString(wantFP) || *fin.Metrics != wantM {
		t.Fatalf("moved job finished %+v, want done with fingerprint %s and metrics %+v",
			fin, fingerprintString(wantFP), wantM)
	}
	var done []string
	for _, dir := range []string{cfgA.JournalDir, cfgB.JournalDir} {
		recs, err := LoadRecords(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.State == StateDone {
				done = append(done, dir)
			}
		}
	}
	if len(done) != 1 || done[0] != cfgB.JournalDir {
		t.Errorf("done records in %v, want exactly the adopter's journal", done)
	}
}

// TestStealJobSettledMovesNothing: a job that finished before the steal
// by ID lands stays where it is, and the steal reports its state — 409
// over HTTP; an unknown ID is a 404.
func TestStealJobSettledMovesNothing(t *testing.T) {
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s)
	st, err := s.Submit(testSpec(t, 5, nil))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)
	if rec, state, err := s.StealJob(st.ID); rec != nil || state != StateDone || err != nil {
		t.Fatalf("StealJob of a done job = %v, %s, %v; want nothing moved, done", rec, state, err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for path, want := range map[string]int{st.ID: http.StatusConflict, "job-999999": http.StatusNotFound} {
		resp, err := http.Post(ts.URL+"/fleet/steal/"+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST /fleet/steal/%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	if got, _ := s.Status(st.ID); got.State != StateDone {
		t.Errorf("the settled job is %s after the steals, want done", got.State)
	}
}

// TestFencedNodeRefusesWith503: a fenced node refuses a submission, an
// edit and a handoff alike with 503 and the drain's Retry-After — the
// code of a node that is leaving, not a client error that would end the
// coordinator's placement walk.
func TestFencedNodeRefusesWith503(t *testing.T) {
	cfg := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s)
	spec := testSpec(t, 5, nil)
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)
	rec, err := readJobPath(journalPath(cfg.JournalDir, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	rec.ID, rec.State = "job-peer-000001", StateQueued
	var handoff bytes.Buffer
	if err := rec.EncodeRecord(&handoff); err != nil {
		t.Fatal(err)
	}
	if _, err := FenceJournal(cfg.JournalDir); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	specBody, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []struct{ path, body string }{
		{"/jobs", string(specBody)}, // the first journal write meets the fence
		{"/jobs", string(specBody)}, // the latched refusal
		{"/jobs/" + st.ID + "/edit", `{"edits": "block 1 1 2 2\n"}`},
		{"/fleet/handoff", handoff.String()},
	} {
		resp, err := http.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != s.retryAfterDrain {
			t.Errorf("POST %s on a fenced node = %d, Retry-After %q; want 503, %q",
				req.path, resp.StatusCode, resp.Header.Get("Retry-After"), s.retryAfterDrain)
		}
	}
}

// TestJournalFencing is the zombie witness: once the journal epoch is
// bumped with the fenced marker, every journal write this server
// attempts is refused, admission latches shut, in-flight work fails
// without committing, and a fresh daemon refuses to start on the
// fenced directory. The on-disk journal never changes after the fence
// — exactly the guarantee that lets a coordinator hand the jobs to a
// peer without a double-commit window.
func TestJournalFencing(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxAttempts = 1
	blk := blockFirstJob(&cfg)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != 1 {
		t.Fatalf("fresh journal epoch = %d, want 1", got)
	}

	spec := testSpec(t, 5, map[string]int64{"checkpointevery": 1})
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, blk.Fired, "blocker never fired")

	// The coordinator's move: bump the epoch out from under the node.
	epoch, err := FenceJournal(cfg.JournalDir)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("fenced epoch = %d, want 2", epoch)
	}
	before, err := LoadRecords(cfg.JournalDir, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Unblock: the running job's next checkpoint write is refused, and
	// the job fails locally instead of retrying into a wall.
	blk.Release()
	fin := waitTerminal(t, s, st.ID)
	if fin.State != StateFailed || !strings.Contains(fin.Error, "fenced") {
		t.Fatalf("zombie job = %+v, want failed with a fencing error", fin)
	}
	if !s.Fenced() || s.Health() != HealthFenced {
		t.Errorf("server did not latch fenced (health %s)", s.Health())
	}

	// Admission is shut in both layers.
	if _, err := s.Submit(spec); !errors.Is(err, ErrFenced) {
		t.Fatalf("submit on fenced server: err = %v, want ErrFenced", err)
	}
	if _, err := s.Adopt(before[0]); !errors.Is(err, ErrFenced) {
		t.Fatalf("adopt on fenced server: err = %v, want ErrFenced", err)
	}

	// Nothing was committed after the fence: the journal still reads
	// exactly as it did the instant the epoch moved.
	after, err := LoadRecords(cfg.JournalDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) {
		t.Fatalf("journal grew after fencing: %d → %d records", len(before), len(after))
	}
	for i := range before {
		if before[i].ID != after[i].ID || before[i].State != after[i].State ||
			before[i].Attempt != after[i].Attempt {
			t.Errorf("record %s changed after fencing: %s/%d → %s/%d",
				before[i].ID, before[i].State, before[i].Attempt,
				after[i].State, after[i].Attempt)
		}
	}

	// A restart on the fenced directory is refused outright: the jobs
	// now live elsewhere, and re-running them here would duplicate work.
	if _, err := New(Config{JournalDir: cfg.JournalDir}); !errors.Is(err, ErrFenced) {
		t.Fatalf("New on fenced dir: err = %v, want ErrFenced", err)
	}
}

// TestReadyzHealthSplit pins the coordinator-facing health contract:
// /readyz names WHY the node is not ready, because the fleet scheduler
// treats the answers differently — saturated nodes are steal-from
// candidates that will free up, draining nodes only ever shrink.
func TestReadyzHealthSplit(t *testing.T) {
	readyz := func(ts *httptest.Server) (int, string, string) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Retry-After")
	}

	t.Run("saturated", func(t *testing.T) {
		cfg := testConfig(t)
		cfg.QueueDepth = 1
		blk := blockFirstJob(&cfg)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		code, body, _ := readyz(ts)
		if code != http.StatusOK || !strings.Contains(body, HealthReady) {
			t.Fatalf("idle readyz = %d %q, want 200 ready", code, body)
		}

		if _, err := s.Submit(testSpec(t, 5, nil)); err != nil {
			t.Fatal(err)
		}
		waitCond(t, blk.Fired, "blocker never fired")
		code, body, retryAfter := readyz(ts)
		if code != http.StatusServiceUnavailable || !strings.Contains(body, HealthSaturated) {
			t.Fatalf("saturated readyz = %d %q, want 503 saturated", code, body)
		}
		if strings.Contains(body, HealthDraining) {
			t.Errorf("saturated body %q conflates draining", body)
		}
		if retryAfter == "" {
			t.Error("saturated readyz carries no Retry-After")
		}
		blk.Release()
		drainServer(t, s)
	})

	t.Run("draining", func(t *testing.T) {
		cfg := testConfig(t)
		cfg.DrainBudget = 90 * time.Second
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		drainServer(t, s)

		code, body, retryAfter := readyz(ts)
		if code != http.StatusServiceUnavailable || !strings.Contains(body, HealthDraining) {
			t.Fatalf("draining readyz = %d %q, want 503 draining", code, body)
		}
		if strings.Contains(body, HealthSaturated) {
			t.Errorf("draining body %q conflates saturated", body)
		}
		// The drain hint advertises the drain horizon, not the backoff.
		if retryAfter != "90" {
			t.Errorf("draining Retry-After = %q, want 90 (the DrainBudget)", retryAfter)
		}
	})
}

// TestRetryAfterArithmetic pins the Retry-After derivation at the
// DrainBudget (and RetryBase) edges: sub-second budgets round up to
// the HTTP minimum of 1, fractional seconds round up not down, and
// whole seconds pass through exactly.
func TestRetryAfterArithmetic(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{time.Nanosecond, "1"},
		{time.Millisecond, "1"},
		{999 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1001 * time.Millisecond, "2"},
		{1500 * time.Millisecond, "2"},
		{30 * time.Second, "30"},
		{59999 * time.Millisecond, "60"},
		{10 * time.Minute, "600"},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", c.d, got, c.want)
		}
	}

	// End to end at an edge value: a 1ns DrainBudget survives
	// setDefaults (it is positive) and yields the minimum legal hint.
	cfg := testConfig(t)
	cfg.DrainBudget = time.Nanosecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	drainServer(t, s)
	resp := postJob(t, ts.URL, testSpec(t, 5, nil))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST /jobs = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After with 1ns DrainBudget = %q, want \"1\"", got)
	}
}
