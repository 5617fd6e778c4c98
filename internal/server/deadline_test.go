package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/boardio"
	"repro/internal/faultinject"
)

// TestDeadlineValidation: deadline_ms is hardened at the front door —
// non-positive and absurd values are 400s, not silent adoption.
func TestDeadlineValidation(t *testing.T) {
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, ms := range []int64{0, -1, MaxDeadlineMs + 1} {
		spec := testSpec(t, 5, nil)
		spec.DeadlineMs = &ms
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("deadline_ms=%d accepted by Submit", ms)
		}
		resp := postJob(t, ts.URL, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST deadline_ms=%d = %d, want 400", ms, resp.StatusCode)
		}
	}

	ms := int64(60_000)
	spec := testSpec(t, 5, nil)
	spec.DeadlineMs = &ms
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("valid deadline refused: %v", err)
	}
	waitTerminal(t, s, st.ID)
}

// TestDeadlineRefusedWhenUnaffordable: a budget that cannot cover the
// job's estimated cost is refused at admission with 504 + Retry-After,
// not accepted and doomed.
func TestDeadlineRefusedWhenUnaffordable(t *testing.T) {
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // three attempts train the estimate: a second a connection
		s.connCost.Observe(1)
	}
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ms := int64(50) // a tiny board still has >0 connections: 50ms < 1s·conns
	spec := testSpec(t, 5, nil)
	spec.DeadlineMs = &ms
	if _, err := s.Submit(spec); err == nil {
		t.Fatal("unaffordable deadline accepted by Submit")
	}
	resp := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("POST unaffordable deadline = %d, want 504", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("504 refusal carries no Retry-After")
	}
}

// TestDeadlineExceededFailsJob: a deadline that expires mid-route
// fails the job permanently — no retry loop burns attempts on a corpse
// — and the failure names the deadline.
func TestDeadlineExceededFailsJob(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxAttempts = 5
	slow := faultinject.NewSlowNode(5*time.Millisecond, 1)
	cfg.BoardHook = func(b *board.Board) { b.Interpose(slow) }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s)

	ms := int64(30) // the slow interposer makes the route outrun this
	spec := testSpec(t, 5, nil)
	spec.DeadlineMs = &ms
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, st.ID)
	if fin.State != StateFailed {
		t.Fatalf("job state = %s, want failed (status %+v)", fin.State, fin)
	}
	if !strings.Contains(fin.Error, "deadline") {
		t.Errorf("failure does not name the deadline: %q", fin.Error)
	}
}

// TestMaxBodyRejected: request hardening — a body just over
// MaxBodyBytes is refused with 413 before it is buffered whole, and a
// normal-sized spec fits under the cap.
func TestMaxBodyRejected(t *testing.T) {
	s, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big, err := json.Marshal(JobSpec{Design: strings.Repeat("x", MaxBodyBytes)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST = %d, want 413", resp.StatusCode)
	}
	if resp := postJob(t, ts.URL, testSpec(t, 5, nil)); resp.StatusCode != http.StatusAccepted {
		t.Errorf("normal POST = %d, want 202", resp.StatusCode)
	}
}

// TestJournalDeadlineTokenRoundTrip: the deadline directive survives
// write→parse exactly, and a record without one serializes with no
// deadline line — the byte-identical guarantee for the no-deadline
// path. No record carries a token line.
func TestJournalDeadlineTokenRoundTrip(t *testing.T) {
	cfg := testConfig(t)
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	snap, err := buildSnapshot(testSpec(t, 5, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Unix(0, 1754600000123456789)
	j := &Job{ID: "job-000042", State: StateQueued, snap: snap, Deadline: deadline}
	var buf bytes.Buffer
	if err := writeJobRecord(&buf, j); err != nil {
		t.Fatal(err)
	}
	rec, err := readJobRecord(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Deadline.Equal(deadline) {
		t.Errorf("deadline = %v, want %v", rec.Deadline, deadline)
	}
	if bytes.Contains(buf.Bytes(), []byte("\ntoken ")) {
		t.Errorf("record carries a token line:\n%s", buf.String())
	}

	plain := &Job{ID: "job-000043", State: StateQueued, snap: snap}
	buf.Reset()
	if err := writeJobRecord(&buf, plain); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"deadline ", "token "} {
		if bytes.Contains(buf.Bytes(), []byte("\n"+dir)) {
			t.Errorf("record without %s carries a %q line:\n%s", strings.TrimSpace(dir), dir, buf.String())
		}
	}
}

// TestLegacyTokenRecordResumes: a journal record written by the retired
// hedged-execution protocol carries a "token" line. It still loads and
// resumes to the uninterrupted run's fingerprint, and the records the
// job writes from then on carry no token line.
func TestLegacyTokenRecordResumes(t *testing.T) {
	cfg := testConfig(t)
	spec := testSpec(t, 5, nil)
	wantFP, _ := baseline(t, spec, cfg)
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	snap, err := buildSnapshot(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-000000"
	var buf bytes.Buffer
	if err := writeJobRecord(&buf, &Job{ID: id, State: StateQueued, snap: snap}); err != nil {
		t.Fatal(err)
	}
	body, err := boardio.VerifyChecksum(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.NewBuffer(bytes.Replace(body, []byte("\nsnapshot begin\n"), []byte("\ntoken 2\nsnapshot begin\n"), 1))
	boardio.AppendChecksum(legacy)
	if err := os.WriteFile(journalPath(cfg.JournalDir, id), legacy.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s)
	if fin := waitTerminal(t, s, id); fin.State != StateDone || fin.Fingerprint != fingerprintString(wantFP) {
		t.Fatalf("legacy record finished %+v, want done with fingerprint %s", fin, fingerprintString(wantFP))
	}
	data, err := os.ReadFile(journalPath(cfg.JournalDir, id))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("\ntoken ")) {
		t.Errorf("the rewritten record kept the token line:\n%s", data)
	}
}
