package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// scrape GETs /metrics and returns the parsed exposition.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	vals, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition malformed: %v", err)
	}
	return vals
}

// TestMetricsEndpoint scrapes a daemon that has routed one job to
// completion: the exposition must parse line-by-line and carry the job
// lifecycle, latency and router-phase series the ISSUE promises.
func TestMetricsEndpoint(t *testing.T) {
	cfg := testConfig(t)
	cfg.Metrics = obs.NewRegistry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, err := s.Submit(testSpec(t, 5, nil))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, s, st.ID); fin.State != StateDone {
		t.Fatalf("job state = %s: %+v", fin.State, fin)
	}
	drainServer(t, s)

	vals := scrape(t, ts.URL)
	for name, want := range map[string]float64{
		"grr_jobs_submitted_total": 1,
		"grr_jobs_done_total":      1,
		"grr_jobs_failed_total":    0,
		"grr_job_attempts_total":   1,
		"grr_queue_depth":          0,
		"grr_slots_in_use":         0,
		"grr_jobs_running":         0,
	} {
		if got := vals[name]; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	// The job's routing work flowed into the router series.
	if vals["grr_router_routed_total"] == 0 {
		t.Error("grr_router_routed_total is zero after a routed job")
	}
	if vals["grr_router_connections_total"] == 0 {
		t.Error("grr_router_connections_total is zero after a routed job")
	}
	if vals[`grr_router_phase_seconds_count{phase="zero_via"}`] == 0 {
		t.Error("zero_via phase histogram empty after a routed job")
	}
	// Latency histograms observed the attempt and the whole job.
	if vals["grr_job_attempt_seconds_count"] != 1 {
		t.Errorf("grr_job_attempt_seconds_count = %g, want 1", vals["grr_job_attempt_seconds_count"])
	}
	if vals["grr_job_seconds_count"] != 1 {
		t.Errorf("grr_job_seconds_count = %g, want 1", vals["grr_job_seconds_count"])
	}
	// Every journaled transition was counted.
	if vals["grr_journal_writes_total"] < 3 { // queued, running, done at minimum
		t.Errorf("grr_journal_writes_total = %g, want >= 3", vals["grr_journal_writes_total"])
	}
}

// TestMetricsEndpointAbsentWithoutRegistry: a daemon built without a
// registry must not expose a scrape surface at all.
func TestMetricsEndpointAbsentWithoutRegistry(t *testing.T) {
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drainServer(t, s)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics without a registry: status = %d, want 404", resp.StatusCode)
	}
}

// backoffSchedule draws the server's first n jittered backoff delays.
func backoffSchedule(s *Server, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = s.backoff.Delay(1)
	}
	return out
}

// TestRetrySeedEntropy pins the lockstep-retry bugfix: seed 0 means
// "derive from entropy", so two daemon (re)starts jitter differently;
// explicitly pinned seeds still replay identical schedules for tests.
func TestRetrySeedEntropy(t *testing.T) {
	mk := func(seed int64) *Server {
		cfg := testConfig(t)
		cfg.RetrySeed = seed
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { drainServer(t, s) })
		return s
	}
	equal := func(a, b []time.Duration) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	const n = 16
	if equal(backoffSchedule(mk(0), n), backoffSchedule(mk(0), n)) {
		t.Error("two seed-0 daemons drew identical jitter schedules — restarts retry in lockstep")
	}
	if !equal(backoffSchedule(mk(7), n), backoffSchedule(mk(7), n)) {
		t.Error("two seed-7 daemons drew different schedules — pinned seeds must replay")
	}
}

// TestRetryAfterDerivedFromConfig: the 429/503 Retry-After hints come
// from Config (backoff base, drain budget), not hardcoded constants.
func TestRetryAfterDerivedFromConfig(t *testing.T) {
	cfg := testConfig(t)
	cfg.RetryBase = 3 * time.Second
	cfg.DrainBudget = 45 * time.Second
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if s.retryAfterFull != "3" || s.retryAfterDrain != "45" {
		t.Fatalf("derived Retry-After = (%q, %q), want (3, 45)", s.retryAfterFull, s.retryAfterDrain)
	}

	drainServer(t, s)
	resp := postJob(t, ts.URL, testSpec(t, 5, nil))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "45" {
		t.Errorf("draining Retry-After = %q, want 45 (DrainBudget)", got)
	}
}

// TestDrainRecoveryMetricsConsistency drives the full drain → restart →
// finish cycle with a registry on each side and checks the books
// balance: the draining daemon counts its interrupted jobs, the
// restarted daemon counts the replayed records and recovered jobs, and
// once everything lands the occupancy gauges are back to zero with
// done-counts matching the jobs.
func TestDrainRecoveryMetricsConsistency(t *testing.T) {
	cfg := testConfig(t)
	cfg.Metrics = obs.NewRegistry()
	spec := testSpec(t, 6, map[string]int64{"checkpointevery": 1})

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
	go blk.Release()
	drainServer(t, s)
	if got := cfg.Metrics.Counter("grr_jobs_interrupted_total").Value(); got != 1 {
		t.Errorf("interrupted after drain = %d, want 1 (the wedged job)", got)
	}

	// Restart over the same journal with a fresh registry.
	cfg2 := testConfig(t)
	cfg2.JournalDir = cfg.JournalDir
	cfg2.Metrics = obs.NewRegistry()
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg2.Metrics.Counter("grr_jobs_recovered_total").Value(); got != 2 {
		t.Errorf("recovered = %d, want 2", got)
	}
	if got := cfg2.Metrics.Counter("grr_journal_records_replayed_total").Value(); got < 2 {
		t.Errorf("journal records replayed = %d, want >= 2", got)
	}

	fin1 := waitTerminal(t, s2, st1.ID)
	fin2 := waitTerminal(t, s2, st2.ID)
	drainServer(t, s2)
	if fin1.State != StateDone || fin2.State != StateDone {
		t.Fatalf("recovered jobs ended (%s, %s), want both done", fin1.State, fin2.State)
	}
	reg := cfg2.Metrics
	if got := reg.Counter("grr_jobs_done_total").Value(); got != 2 {
		t.Errorf("done = %d, want 2", got)
	}
	if got := reg.Histogram("grr_job_seconds", obs.DurationBuckets()).Count(); got != 2 {
		t.Errorf("grr_job_seconds count = %d, want 2", got)
	}
	for _, g := range []string{"grr_queue_depth", "grr_slots_in_use", "grr_jobs_running"} {
		if got := reg.Gauge(g).Value(); got != 0 {
			t.Errorf("%s = %d after everything settled, want 0", g, got)
		}
	}
}
