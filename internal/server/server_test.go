package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/boardio"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/simfs"
	"repro/internal/workload"
)

// testSpec builds a JobSpec from a small generated workload design
// (seeded, so each seed is a distinct but reproducible board), with
// nets strung server-side.
func testSpec(t *testing.T, seed int64, options map[string]int64) JobSpec {
	t.Helper()
	d, err := workload.Generate(workload.TinySpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := boardio.WriteDesign(&sb, d); err != nil {
		t.Fatal(err)
	}
	return JobSpec{Design: sb.String(), Options: options}
}

// testConfig returns a Config suitable for fast tests; callers override
// fields as needed.
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Workers:    1,
		QueueDepth: 4,
		JournalDir: t.TempDir(),
		RetryBase:  time.Millisecond,
		RetryMax:   20 * time.Millisecond,
	}
}

// baseline routes the spec directly — no daemon, no checkpoints — and
// returns the deterministic final fingerprint and metrics every daemon
// path must reproduce bit-identically.
func baseline(t *testing.T, spec JobSpec, cfg Config) (uint64, core.Metrics) {
	t.Helper()
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	snap, err := buildSnapshot(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, r, err := snap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	res := r.Route()
	if res.Aborted != core.AbortNone {
		t.Fatalf("baseline run aborted: %v", res)
	}
	if err := b.Audit(); err != nil {
		t.Fatalf("baseline board inconsistent: %v", err)
	}
	return b.Fingerprint(), res.Metrics
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, s *Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s unknown", id)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := s.Status(id)
	t.Fatalf("job %s never reached a terminal state (last: %+v)", id, st)
	return Status{}
}

func drainServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestJournalRoundTrip: a job record survives write→read bit-exactly,
// and corruption or truncation is detected, not silently accepted.
func TestJournalRoundTrip(t *testing.T) {
	cfg := testConfig(t)
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	snap, err := buildSnapshot(testSpec(t, 5, map[string]int64{"nodebudget": 12345}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := &Job{
		ID:      "job-000007",
		State:   StateRetrying,
		Attempt: 2,
		Err:     `transient "quoted" failure`,
		Aborted: "cancelled",
		snap:    snap,
	}

	var buf bytes.Buffer
	if err := writeJobRecord(&buf, j); err != nil {
		t.Fatal(err)
	}
	got, err := readJobRecord(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != j.ID || got.State != j.State || got.Attempt != j.Attempt ||
		got.Err != j.Err || got.Aborted != j.Aborted {
		t.Errorf("round trip changed header:\n got  %+v\n want %+v", got, j)
	}
	if len(got.snap.Conns) != len(snap.Conns) || got.snap.Opts.NodeBudget != 12345 {
		t.Errorf("round trip changed snapshot: %d conns, nodebudget %d",
			len(got.snap.Conns), got.snap.Opts.NodeBudget)
	}

	// Flip one byte mid-file: the whole-file checksum must catch it.
	bad := bytes.Clone(buf.Bytes())
	bad[len(bad)/3] ^= 0x40
	if _, err := readJobRecord(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt record accepted")
	}
	// Truncate: no trailer, must be rejected.
	if _, err := readJobRecord(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated record accepted")
	}
}

// TestSubmitToCompletion: the straight-line path — submit, route, done —
// must finish bit-identically to a direct, daemon-free run.
func TestSubmitToCompletion(t *testing.T) {
	cfg := testConfig(t)
	spec := testSpec(t, 6, nil)
	wantFP, wantM := baseline(t, spec, cfg)

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s)

	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued {
		t.Fatalf("submitted job state = %s, want queued", st.State)
	}
	fin := waitTerminal(t, s, st.ID)
	if fin.State != StateDone || fin.AuditOK == nil || !*fin.AuditOK {
		t.Fatalf("job did not finish clean: %+v", fin)
	}
	if fp := fingerprintString(wantFP); fin.Fingerprint != fp {
		t.Errorf("fingerprint = %s, want %s", fin.Fingerprint, fp)
	}
	if *fin.Metrics != wantM {
		t.Errorf("metrics diverged from direct run:\n got  %+v\n want %+v", *fin.Metrics, wantM)
	}

	// The journal's terminal record carries the result too.
	j, err := readJobPath(journalPath(cfg.JournalDir, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone || j.Fingerprint != wantFP || !j.AuditOK {
		t.Errorf("journal record wrong: %+v", j)
	}
}

func fingerprintString(fp uint64) string {
	var s Status
	j := Job{State: StateDone, Fingerprint: fp, AuditOK: true}
	s = j.status()
	return s.Fingerprint
}

// TestAdmissionControl: QueueDepth bounds live jobs; beyond it Submit
// sheds load with ErrQueueFull and the HTTP layer answers 429 with a
// Retry-After, instead of queueing unboundedly.
func TestAdmissionControl(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueDepth = 2
	blk := faultinject.BlockAt(1)
	var first atomic.Bool
	cfg.BoardHook = func(b *board.Board) {
		if first.CompareAndSwap(false, true) {
			b.Interpose(blk)
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := testSpec(t, 5, nil)
	st1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick job 1 up and wedge inside a mutation:
	// it now holds a slot as running.
	waitCond(t, blk.Fired, "blocker never fired")
	if _, err := s.Submit(spec); err != nil {
		t.Fatalf("second submit (fills the queue): %v", err)
	}
	if _, err := s.Submit(spec); err != ErrQueueFull {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}

	// Same refusal over HTTP: 429 + Retry-After.
	resp := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST /jobs status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}

	blk.Release()
	fin := waitTerminal(t, s, st1.ID)
	if fin.State != StateDone {
		t.Fatalf("job 1 state = %s after release: %+v", fin.State, fin)
	}
	drainServer(t, s)
}

func postJob(t *testing.T, base string, spec JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp
}

func waitCond(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
}

// TestDrainCheckpointsAndRecovers is the graceful-shutdown contract
// end-to-end: drain flips readiness, the in-flight job aborts at a
// connection boundary and lands in the journal as interrupted, the
// queued job stays journaled as queued, and a restarted daemon finishes
// both bit-identically to never-interrupted runs.
func TestDrainCheckpointsAndRecovers(t *testing.T) {
	cfg := testConfig(t)
	spec := testSpec(t, 6, map[string]int64{"checkpointevery": 1})
	wantFP, wantM := baseline(t, spec, cfg)

	blk := faultinject.BlockAt(3)
	var first atomic.Bool
	hookCfg := cfg
	hookCfg.BoardHook = func(b *board.Board) {
		if first.CompareAndSwap(false, true) {
			b.Interpose(blk)
		}
	}
	s, err := New(hookCfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	st1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, blk.Fired, "blocker never fired")

	// Drain while job 1 is wedged mid-mutation and job 2 is queued.
	drainErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	go func() { drainErr <- s.Drain(ctx) }()

	// Readiness flips immediately; liveness stays up; admission refuses.
	waitCond(t, func() bool { return !s.Ready() }, "Ready never flipped")
	if resp := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("GET /readyz while draining = %d, want 503", resp.StatusCode)
	}
	if resp := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz while draining = %d, want 200", resp.StatusCode)
	}
	if resp := postJob(t, ts.URL, spec); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST /jobs while draining = %d, want 503", resp.StatusCode)
	}

	blk.Release()
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()

	fin1, ok := s.Status(st1.ID)
	if !ok || fin1.State != StateInterrupted {
		t.Fatalf("drained running job state = %+v, want interrupted", fin1)
	}
	fin2, ok := s.Status(st2.ID)
	if !ok || fin2.State != StateQueued {
		t.Fatalf("drained queued job state = %+v, want queued", fin2)
	}

	// Restart on the same journal: both jobs must complete and match the
	// uninterrupted baseline exactly.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s2)
	for _, id := range []string{st1.ID, st2.ID} {
		fin := waitTerminal(t, s2, id)
		if fin.State != StateDone || fin.AuditOK == nil || !*fin.AuditOK {
			t.Fatalf("recovered %s did not finish clean: %+v", id, fin)
		}
		if fin.Fingerprint != fingerprintString(wantFP) {
			t.Errorf("recovered %s fingerprint = %s, want %s", id, fin.Fingerprint, fingerprintString(wantFP))
		}
		if *fin.Metrics != wantM {
			t.Errorf("recovered %s metrics diverged:\n got  %+v\n want %+v", id, *fin.Metrics, wantM)
		}
	}
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp
}

// TestRetryOnCheckpointWriteFailure: a journal write that fails mid-run
// aborts the attempt (AbortCheckpoint), is classified transient, and
// the retry — resuming from the last durable record — still converges
// on the baseline result.
func TestRetryOnCheckpointWriteFailure(t *testing.T) {
	cfg := testConfig(t)
	spec := testSpec(t, 6, map[string]int64{"checkpointevery": 1})
	wantFP, _ := baseline(t, spec, cfg)

	// Job records for this one-job, one-worker sequence, one write each:
	// #1 queued (Submit), #2 running, #3 the first mid-run checkpoint —
	// fail that one and only that one. EACCES is not a disk errno, so the
	// failure takes the retry path, not the degraded-disk posture.
	inj := simfs.NewInjectFS(nil)
	prev := simfs.Swap(inj)
	defer simfs.Swap(prev)
	inj.Arm(&simfs.Rule{Op: simfs.OpWrite, Path: journalExt + ".tmp", N: 3, Err: syscall.EACCES})

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s)

	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, st.ID)
	if fin.State != StateDone || fin.Attempt != 2 {
		t.Fatalf("job = %+v, want done on attempt 2", fin)
	}
	if fin.Fingerprint != fingerprintString(wantFP) {
		t.Errorf("fingerprint = %s, want %s", fin.Fingerprint, fingerprintString(wantFP))
	}
	if fin.Error != "" {
		t.Errorf("done job still carries error %q", fin.Error)
	}
}

// TestCrashedAttemptIsRetried: a faultinject.Crash — the simulated
// SIGKILL, a panic from inside a board mutation — is contained by the
// worker's panic isolation when no OnCrash hook is installed, and the
// retry resumes from the last durable checkpoint to the exact baseline
// board. (cmd/grrd wires OnCrash to os.Exit and covers the real
// process-death path.)
func TestCrashedAttemptIsRetried(t *testing.T) {
	cfg := testConfig(t)
	spec := testSpec(t, 6, map[string]int64{"checkpointevery": 1})
	wantFP, wantM := baseline(t, spec, cfg)

	var first atomic.Bool
	cfg.BoardHook = func(b *board.Board) {
		if first.CompareAndSwap(false, true) {
			b.Interpose(faultinject.CrashAt(7))
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s)

	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, st.ID)
	if fin.State != StateDone || fin.Attempt != 2 {
		t.Fatalf("job = %+v, want done on attempt 2", fin)
	}
	if fin.Fingerprint != fingerprintString(wantFP) || *fin.Metrics != wantM {
		t.Errorf("crashed-and-retried job diverged from baseline:\n got  %s %+v\n want %s %+v",
			fin.Fingerprint, *fin.Metrics, fingerprintString(wantFP), wantM)
	}
}

// TestAttemptsExhausted: a job that fails on every attempt lands in
// failed with the cause recorded, and its slot is released so the
// queue does not leak capacity.
func TestAttemptsExhausted(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxAttempts = 2
	cfg.QueueDepth = 1
	cfg.BoardHook = func(b *board.Board) {
		b.Interpose(faultinject.CrashAt(1))
	}
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
	fin := waitTerminal(t, s, st.ID)
	if fin.State != StateFailed || fin.Attempt != 2 {
		t.Fatalf("job = %+v, want failed after 2 attempts", fin)
	}
	if !strings.Contains(fin.Error, "panic") {
		t.Errorf("failure cause %q does not name the panic", fin.Error)
	}
	// The slot must be free again: with QueueDepth 1, a fresh submit
	// succeeds only if the failed job released it. (It will also fail;
	// admission is what's under test.)
	if _, err := s.Submit(spec); err != nil {
		t.Fatalf("submit after failure: %v (slot leaked?)", err)
	}
}

// TestBadSpecRejected: spec errors are permanent client errors — no
// slot consumed, HTTP 400.
func TestBadSpecRejected(t *testing.T) {
	cfg := testConfig(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Submit(JobSpec{Design: "not a design"}); err == nil {
		t.Error("garbage design accepted")
	}
	spec := testSpec(t, 5, map[string]int64{"no-such-option": 1})
	if _, err := s.Submit(spec); err == nil {
		t.Error("unknown option accepted")
	}
	if resp := postJob(t, ts.URL, spec); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST bad spec = %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestRecoverySkipsCorruptRecord: one externally damaged journal file
// must not prevent recovery of the healthy jobs next to it.
func TestRecoverySkipsCorruptRecord(t *testing.T) {
	cfg := testConfig(t)
	spec := testSpec(t, 5, nil)

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, st.ID)
	drainServer(t, s)

	// Plant a corrupt record beside the good one.
	if err := writeFile(journalPath(cfg.JournalDir, "job-000999"), "grrdjob v1\ngarbage\n"); err != nil {
		t.Fatal(err)
	}

	var log syncBuffer
	cfg.Log = obs.NewLogger(&log)
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s2)
	if _, ok := s2.Status(st.ID); !ok {
		t.Error("healthy job lost during recovery")
	}
	if _, ok := s2.Status("job-000999"); ok {
		t.Error("corrupt record resurrected as a job")
	}
	if !bytes.Contains(log.Bytes(), []byte("event=journal_record_corrupt")) {
		t.Errorf("corrupt record skipped silently; log:\n%s", log.Bytes())
	}
}

func writeFile(path, content string) error {
	return boardio.AtomicWrite(path, func(w io.Writer) error {
		_, err := io.WriteString(w, content)
		return err
	})
}

// TestSubmitLegacyWorkersOption: the retired options "workers" (the
// intra-board worker count) and "recordregions" (which armed
// incremental re-routing) are still accepted from old clients, whatever
// their value, and change nothing: the job's snapshot is written
// byte-identically to one without them, and the job finishes
// bit-identically to the daemon-free run without them.
func TestSubmitLegacyWorkersOption(t *testing.T) {
	cfg := testConfig(t)
	spec := testSpec(t, 6, nil)
	wantFP, wantM := baseline(t, spec, cfg)

	written := func(spec JobSpec) ([]byte, error) {
		snap, err := buildSnapshot(spec, cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = boardio.WriteSnapshot(&buf, snap)
		return buf.Bytes(), err
	}
	plain, err := written(spec)
	if err != nil {
		t.Fatal(err)
	}
	legacy := []string{"workers", "recordregions"}
	for _, name := range legacy {
		for _, v := range []int64{-5, 0, 1, 4, 1 << 20} {
			got, err := written(testSpec(t, 6, map[string]int64{name: v}))
			if err != nil {
				t.Fatalf("%s=%d rejected: %v", name, v, err)
			}
			if !bytes.Equal(got, plain) {
				t.Errorf("%s=%d changed the written snapshot", name, v)
			}
		}
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s)

	for _, name := range legacy {
		st, err := s.Submit(testSpec(t, 6, map[string]int64{name: 4}))
		if err != nil {
			t.Fatal(err)
		}
		fin := waitTerminal(t, s, st.ID)
		if fin.State != StateDone || fin.AuditOK == nil || !*fin.AuditOK {
			t.Fatalf("%s: job did not finish clean: %+v", name, fin)
		}
		if fp := fingerprintString(wantFP); fin.Fingerprint != fp {
			t.Errorf("%s: fingerprint = %s, want %s", name, fin.Fingerprint, fp)
		}
		if *fin.Metrics != wantM {
			t.Errorf("%s: metrics diverged from the daemon-free run:\n got  %+v\n want %+v", name, *fin.Metrics, wantM)
		}
	}
}
