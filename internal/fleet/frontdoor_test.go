package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// frontDoorAnswer is what a client learns from one POST: the status,
// whether it may retry, the refusal text, and the accepted job's ID.
type frontDoorAnswer struct {
	code       int
	retryAfter bool
	errMsg     string
	ids        []string // accepted job IDs
}

func postFrontDoor(t *testing.T, base, path string, body []byte) frontDoorAnswer {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s%s: %v", base, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	a := frontDoorAnswer{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After") != ""}
	switch {
	case resp.StatusCode == http.StatusAccepted:
		var st server.Status
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		a.ids = append(a.ids, st.ID)
	case resp.StatusCode == http.StatusMethodNotAllowed:
		// The mux's own answer to a route it serves only for other
		// methods, in plain text.
		a.errMsg = strings.TrimSpace(string(raw))
	default:
		var e httpError
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("POST %s%s = %d with a body that is not an error: %q", base, path, resp.StatusCode, raw)
		}
		a.errMsg = e.Error
	}
	return a
}

// TestFrontDoorMatchesGrrd holds the coordinator to its mirror
// contract: every request below gets from a coordinator fronting two
// grrds the status, Retry-After presence and refusal text a standalone
// grrd gives it. The cases run in order, and
// each accepted job finishes (polled through the endpoint that took
// it) before the next case, so the last case resubmits a finished job.
func TestFrontDoorMatchesGrrd(t *testing.T) {
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	withDeadline := func(ms int64) []byte {
		spec := buildSpec(t, 13)
		spec.DeadlineMs = &ms
		return mustJSON(spec)
	}
	valid := mustJSON(buildSpec(t, 11))
	badDesign := server.JobSpec{Design: "not a design"}
	cases := []struct {
		name, path string
		body       []byte
	}{
		{"valid spec", "/jobs", valid},
		{"design does not parse", "/jobs", mustJSON(badDesign)},
		{"unknown field", "/jobs", mustJSON(map[string]any{"design": buildSpec(t, 11).Design, "colour": "red"})},
		{"deadline_ms 0", "/jobs", withDeadline(0)},
		{"deadline_ms above MaxDeadlineMs", "/jobs", withDeadline(server.MaxDeadlineMs + 1)},
		{"body over 16 MiB", "/jobs", mustJSON(server.JobSpec{Design: strings.Repeat("x", 16<<20)})},
		// Neither serves a batch endpoint: both answer 405.
		{"empty batch", "/jobs/batch", mustJSON(map[string]any{"jobs": []server.JobSpec{}})},
		{"batch with one bad item", "/jobs/batch", mustJSON(map[string]any{"jobs": []server.JobSpec{buildSpec(t, 12), badDesign}})},
		{"identical resubmission", "/jobs", valid},
	}

	grrd, err := server.New(server.Config{JournalDir: t.TempDir(), Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	grrdTS := httptest.NewServer(grrd.Handler())
	t.Cleanup(func() {
		grrdTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		grrd.Drain(ctx)
		cancel()
	})

	// Failover off: this test is about admission, not fencing, and a
	// 16 MiB body is slow to decode under -race.
	c := New(Config{HeartbeatEvery: time.Second, HeartbeatMiss: 60})
	coordTS := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		coordTS.Close()
		c.Close()
	})
	for _, name := range []string{"a", "b"} {
		startNode(t, name, coordTS.URL, server.Config{JournalDir: t.TempDir(), QueueDepth: 8}, nil, nil)
	}
	waitFor(t, 10*time.Second, func() bool { return len(c.candidates()) == 2 }, "both nodes never became schedulable")

	for _, tc := range cases {
		want := postFrontDoor(t, grrdTS.URL, tc.path, tc.body)
		got := postFrontDoor(t, coordTS.URL, tc.path, tc.body)
		if got.code != want.code || got.retryAfter != want.retryAfter || got.errMsg != want.errMsg {
			t.Errorf("%s: coordinator answered %d (Retry-After %v) %q, grrd %d (Retry-After %v) %q",
				tc.name, got.code, got.retryAfter, got.errMsg, want.code, want.retryAfter, want.errMsg)
		}
		if tc.path == "/jobs/batch" && want.code != http.StatusMethodNotAllowed {
			t.Errorf("%s: grrd answered %d, want 405", tc.name, want.code)
		}
		for base, ids := range map[string][]string{grrdTS.URL: want.ids, coordTS.URL: got.ids} {
			for _, id := range ids {
				if st := waitJobDone(t, base, id, 20*time.Second); st.State != server.StateDone {
					t.Fatalf("%s: job %s at %s ended %s: %s", tc.name, id, base, st.State, st.Error)
				}
			}
		}
	}
}
