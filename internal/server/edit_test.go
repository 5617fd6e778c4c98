package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/board"
	"repro/internal/boardio"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

// postEdit POSTs an edit script against a job and returns the response.
func postEdit(t *testing.T, base, id, edits string) *http.Response {
	t.Helper()
	body, err := json.Marshal(editRequest{Edits: edits})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs/"+id+"/edit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestEditEndpoint: POST /jobs/{id}/edit derives a new job whose final
// board and metrics are bit-identical to routing the edited problem
// from scratch.
func TestEditEndpoint(t *testing.T) {
	cfg := testConfig(t)
	var log syncBuffer
	cfg.Log = obs.NewLogger(&log)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drainServer(t, s)

	st, err := s.Submit(testSpec(t, 6, nil))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, st.ID)
	if fin.State != StateDone {
		t.Fatalf("parent did not finish: %+v", fin)
	}
	s.mu.Lock()
	parentSnap := s.jobs[st.ID].snap
	s.mu.Unlock()

	// Edit: rip out one net and re-add its connection under a new name —
	// the same endpoints, so the edited problem stays routable.
	victim := parentSnap.Conns[0]
	editsText := fmt.Sprintf("remove-net %s\nadd-conn %d %d %d %d %s - 0\n",
		victim.Net, victim.A.X, victim.A.Y, victim.B.X, victim.B.Y, victim.Net+"_MOVED")
	edits, err := boardio.ReadEdits(bytes.NewReader([]byte(editsText)))
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: the edited snapshot routed from scratch.
	editedSnap, err := editSnapshot(parentSnap, edits)
	if err != nil {
		t.Fatal(err)
	}
	ob, or, err := editedSnap.Restore()
	if err != nil {
		t.Fatal(err)
	}
	ores := or.Route()
	if ores.Aborted != core.AbortNone {
		t.Fatalf("oracle run aborted: %v", ores)
	}
	if err := ob.Audit(); err != nil {
		t.Fatalf("oracle board inconsistent: %v", err)
	}

	resp := postEdit(t, ts.URL, st.ID, editsText)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs/{id}/edit status = %d, want 202", resp.StatusCode)
	}
	var child Status
	if err := json.NewDecoder(resp.Body).Decode(&child); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if child.ID == st.ID {
		t.Fatal("edit reused the parent's job ID")
	}
	// The derived job is admitted along the admit edge, naming its parent.
	var admitted string
	for _, line := range strings.Split(string(log.Bytes()), "\n") {
		if strings.Contains(line, "event=job_submitted job="+child.ID+" ") {
			admitted = line
		}
	}
	if !strings.Contains(admitted, " parent="+st.ID+" ") {
		t.Errorf("derived job's job_submitted line %q does not name parent %s", admitted, st.ID)
	}

	cfin := waitTerminal(t, s, child.ID)
	if cfin.State != StateDone || cfin.AuditOK == nil || !*cfin.AuditOK {
		t.Fatalf("derived job did not finish clean: %+v", cfin)
	}
	if want := fingerprintString(ob.Fingerprint()); cfin.Fingerprint != want {
		t.Errorf("derived fingerprint = %s, want %s (from-scratch route of the edited problem)",
			cfin.Fingerprint, want)
	}
	if *cfin.Metrics != ores.Metrics {
		t.Errorf("derived metrics diverged from the oracle's:\n got  %+v\n want %+v", *cfin.Metrics, ores.Metrics)
	}

	// The parent, untouched, is still done with its original result.
	pst, ok := s.Status(st.ID)
	if !ok || pst.State != StateDone || pst.Fingerprint != fin.Fingerprint {
		t.Errorf("parent mutated by the edit: %+v", pst)
	}
}

// TestEditEndpointRefusals: the edit endpoint's error contract — 404
// for an unknown parent, 409 for one that is not done yet, 400 for a
// bad script or an edit that doesn't fit the parent's board, even in
// part.
func TestEditEndpointRefusals(t *testing.T) {
	cfg := testConfig(t)
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

	if resp := postEdit(t, ts.URL, "job-999999", "remove-net N1\n"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("edit of unknown job: status = %d, want 404", resp.StatusCode)
	}

	// Wedge the first job mid-route: editing a running job is a 409.
	st, err := s.Submit(testSpec(t, 5, nil))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, blk.Fired, "blocker never fired")
	if resp := postEdit(t, ts.URL, st.ID, "remove-net N1\n"); resp.StatusCode != http.StatusConflict {
		t.Errorf("edit of a running job: status = %d, want 409", resp.StatusCode)
	}
	blk.Release()
	if fin := waitTerminal(t, s, st.ID); fin.State != StateDone {
		t.Fatalf("job never finished after release: %+v", fin)
	}

	if resp := postEdit(t, ts.URL, st.ID, "bogus 1 2\n"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed script: status = %d, want 400", resp.StatusCode)
	}
	if resp := postEdit(t, ts.URL, st.ID, "block 0 0 100000 100000\n"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-bounds block: status = %d, want 400", resp.StatusCode)
	}
	// A block that crosses the grid's right edge ([0,0..93,57] here) is
	// refused whole, not clipped; grr -edits refuses it too.
	if resp := postEdit(t, ts.URL, st.ID, "block 84 0 200 2\n"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("block across the grid's edge: status = %d, want 400", resp.StatusCode)
	}
	drainServer(t, s)
}
