package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"repro/internal/simfs"
)

// pollUntil spins until cond holds or the deadline passes.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDiskDegradedLifecycle drives the full degraded-posture loop with
// a real injected ENOSPC: the running job parks instead of failing,
// admissions shed with 507 + Retry-After, /readyz says why, and once
// the injection clears the self-probe heals the node — the parked job
// resumes and finishes bit-identical to the baseline, with no operator
// intervention.
func TestDiskDegradedLifecycle(t *testing.T) {
	spec := testSpec(t, 41, map[string]int64{"checkpointevery": 1})
	cfg := testConfig(t)
	cfg.DiskProbeEvery = 20 * time.Millisecond
	wantFP, _ := baseline(t, spec, cfg)

	inj := simfs.NewInjectFS(nil)
	prev := simfs.Swap(inj)
	t.Cleanup(func() { simfs.Swap(prev) })

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Atomic-write creates for this one-job sequence: #1 queued
	// (Submit), #2 running, #3 the first mid-run checkpoint. Fail #3
	// and, sticky, everything after — including the self-probe's
	// scratch file, so the node stays degraded until Disarm.
	inj.Arm(&simfs.Rule{Op: simfs.OpCreate, N: 3, Sticky: true, Err: syscall.ENOSPC})

	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	pollUntil(t, "disk-degraded latch", s.DiskDegraded)
	pollUntil(t, "job to park", func() bool {
		js, _ := s.Status(st.ID)
		return js.State == StateInterrupted
	})
	if h := s.Health(); h != HealthDiskDegraded {
		t.Fatalf("Health = %q, want %q", h, HealthDiskDegraded)
	}
	if h := s.Load().Health; h != HealthDiskDegraded {
		t.Fatalf("Load.Health = %q, want %q", h, HealthDiskDegraded)
	}
	if _, err := s.Submit(spec); !errors.Is(err, ErrDiskDegraded) {
		t.Fatalf("Submit while degraded: err = %v, want ErrDiskDegraded", err)
	}

	// /readyz: 503 naming the posture, with a Retry-After hint.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while degraded: %d, want 503", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte(HealthDiskDegraded)) {
		t.Fatalf("readyz body %q does not name disk_degraded", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("readyz while degraded has no Retry-After")
	}

	// POST /jobs: 507 Insufficient Storage with a Retry-After hint.
	payload, _ := json.Marshal(spec)
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("submit while degraded: %d, want 507", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("507 response has no Retry-After")
	}

	// Clear the injection: the next self-probe must heal the posture and
	// unpark the job, which then finishes on the oracle fingerprint.
	inj.Disarm()
	pollUntil(t, "disk to recover", func() bool { return !s.DiskDegraded() })
	fin := waitTerminal(t, s, st.ID)
	if fin.State != StateDone {
		t.Fatalf("parked job ended %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Fingerprint != fingerprintString(wantFP) {
		t.Errorf("fingerprint after park/unpark = %s, want %s", fin.Fingerprint, fingerprintString(wantFP))
	}
	if h := s.Health(); h != HealthReady {
		t.Errorf("Health after recovery = %q, want ready", h)
	}
	if _, err := s.Submit(testSpec(t, 42, nil)); err != nil {
		t.Errorf("Submit after recovery: %v", err)
	}
}

// TestDiskProbeDisabled: a negative DiskProbeEvery turns the probe
// loop off entirely; a healthy server does no probe I/O either way.
func TestDiskProbeDisabled(t *testing.T) {
	cfg := testConfig(t)
	cfg.DiskProbeEvery = -1

	l := simfs.NewLogFS(cfg.JournalDir)
	prev := simfs.Swap(l)
	t.Cleanup(func() { simfs.Swap(prev) })

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := l.Len()
	time.Sleep(50 * time.Millisecond)
	if n := l.Len(); n != base {
		t.Errorf("idle server with probe disabled did %d filesystem ops", n-base)
	}
	drainServer(t, s)
}
