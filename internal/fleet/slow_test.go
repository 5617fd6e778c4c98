package fleet

import (
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/faultinject"
	"repro/internal/server"
)

// TestMoveStraggler: a job the coordinator placed on a node that
// routes slowly outruns the move delay, is stolen from that node in the
// middle of its run, and is resumed on the healthy peer from its last
// durable checkpoint. It finishes bit-identical to the oracle and done
// in exactly one journal, the donor holds it handed_off, and the
// coordinator's GET /jobs/{id} asks the node that now holds it.
func TestMoveStraggler(t *testing.T) {
	c := New(Config{
		HeartbeatEvery: 25 * time.Millisecond,
		HeartbeatMiss:  40, // failover off: this test is about moves, not fencing
		MoveAfter:      60 * time.Millisecond,
	})
	ts := httptest.NewServer(c.Handler())
	defer func() {
		ts.Close()
		c.Close()
	}()
	spec := buildSpec(t, 9)
	want := oracleFP(t, spec)

	// An idle fleet places on the first name, so the slow node gets the
	// job, and only the move can rescue it.
	slow := faultinject.NewSlowNode(30*time.Millisecond, 1)
	journals := []string{t.TempDir(), t.TempDir()}
	alpha := startNode(t, "alpha", ts.URL, server.Config{
		QueueDepth: 4, JournalDir: journals[0],
		BoardHook: func(b *board.Board) { b.Interpose(slow) },
	}, nil, nil)
	bravo := startNode(t, "bravo", ts.URL, server.Config{QueueDepth: 4, JournalDir: journals[1]}, nil, nil)
	waitFor(t, 10*time.Second, func() bool { return len(c.Nodes()) == 2 }, "fleet never assembled")

	st := submit(t, ts.URL, spec)
	if got, _ := alpha.srv.Status(st.ID); got.ID != st.ID {
		t.Fatalf("job %s was not placed on the slow node", st.ID)
	}
	fin := waitJobDone(t, ts.URL, st.ID, 30*time.Second)
	if fin.State != server.StateDone || fin.Fingerprint != want {
		t.Fatalf("moved job = %+v, want done @ %s", fin, want)
	}
	if got, _ := alpha.srv.Status(st.ID); got.State != server.StateHandedOff {
		t.Errorf("donor copy = %+v, want handed_off", got)
	}
	if got, _ := bravo.srv.Status(st.ID); got.State != server.StateDone {
		t.Errorf("peer copy = %+v, want done", got)
	}
	c.mu.Lock()
	holder := c.jobs[st.ID].node
	c.mu.Unlock()
	if holder != "bravo" {
		t.Errorf("the coordinator says %q holds the job, want bravo", holder)
	}
	if n := c.obs.moves.Value(); n != 1 {
		t.Errorf("grr_fleet_moves_total = %d, want 1", n)
	}
	doneIn := 0
	for _, dir := range journals {
		recs, err := server.LoadRecords(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.ID == st.ID && rec.State == server.StateDone {
				doneIn++
			}
		}
	}
	if doneIn != 1 {
		t.Errorf("the job is done in %d journals, want 1", doneIn)
	}
}

// TestMoveAfterLostAnswer: an answer on either leg of a move is lost
// after the node acted on the request, and the move still leaves the
// job done, bit-identical to the oracle, in exactly one journal.
//
//   - The steal's answer: the donor journaled the job handed_off. The
//     coordinator asks again and reads the record from the donor's
//     journal once the donor says handed_off, or once it is fenced.
//   - The handoff's answer: the peer adopted the record. The record
//     waits in doubt on that peer, offered to no other node, until the
//     peer answers a re-offer with 409, or is fenced and its journal
//     shows fence recovered the job.
func TestMoveAfterLostAnswer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		lose  string // the node whose replies are lost
		fence bool   // fence it, instead of healing it
		moves int64
	}{
		{"steal answer lost, the donor answers again", "alpha", false, 1},
		{"steal answer lost, the donor is fenced", "alpha", true, 1},
		{"handoff answer lost, the peer answers again", "bravo", false, 0},
		{"handoff answer lost, the peer is fenced", "bravo", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			part := faultinject.NewPartition()
			c := New(Config{
				HeartbeatEvery: 25 * time.Millisecond,
				HeartbeatMiss:  40,
				MoveAfter:      60 * time.Millisecond,
				Transport:      part.RoundTripper(nil),
			})
			ts := httptest.NewServer(c.Handler())
			defer func() {
				ts.Close()
				c.Close()
			}()
			spec := buildSpec(t, 9)
			want := oracleFP(t, spec)

			slow := faultinject.NewSlowNode(30*time.Millisecond, 1)
			nodes := map[string]*fleetNode{}
			var journals []string
			for _, name := range []string{"alpha", "bravo", "charlie"} {
				cfg := server.Config{QueueDepth: 4, JournalDir: t.TempDir()}
				if name == "alpha" {
					cfg.BoardHook = func(b *board.Board) { b.Interpose(slow) }
				}
				journals = append(journals, cfg.JournalDir)
				nodes[name] = startNode(t, name, ts.URL, cfg, nil,
					func() bool { return part.HeartbeatDropped(name) })
			}
			waitFor(t, 10*time.Second, func() bool { return len(c.Nodes()) == 3 }, "fleet never assembled")

			st := submit(t, ts.URL, spec)
			if got, _ := nodes["alpha"].srv.Status(st.ID); got.ID != st.ID {
				t.Fatalf("job %s was not placed on the slow node", st.ID)
			}
			host := strings.TrimPrefix(nodes[tc.lose].ts.URL, "http://")
			part.LoseReplies(host)
			// Wait until the coordinator has met the lost answer: the move's
			// ask failed, or the record waits in doubt.
			waitFor(t, 10*time.Second, func() bool {
				c.mu.Lock()
				defer c.mu.Unlock()
				tr, ok := c.transits[st.ID]
				if tc.lose == "alpha" {
					return ok && !tr.busy && tr.rec == nil
				}
				return ok && tr.doubt != nil && tr.doubt.Name == "bravo"
			}, "no answer was lost")
			got, _ := nodes[tc.lose].srv.Status(st.ID)
			if held := got.State != server.StateHandedOff; got.ID != st.ID || held != (tc.lose == "bravo") {
				t.Fatalf("%s's copy = %+v: the lost answer's request did not act", tc.lose, got)
			}
			if tc.fence {
				part.MuteHeartbeats(tc.lose)
				waitFor(t, 10*time.Second, func() bool {
					return slices.ContainsFunc(c.Nodes(), func(n NodeView) bool { return n.Name == tc.lose && n.Fenced })
				}, tc.lose+" was never fenced")
			} else {
				part.Heal(host)
			}

			fin := waitJobDone(t, ts.URL, st.ID, 30*time.Second)
			if fin.State != server.StateDone || fin.Fingerprint != want {
				t.Fatalf("moved job = %+v, want done @ %s", fin, want)
			}
			if n := c.obs.moves.Value(); n != tc.moves {
				t.Errorf("grr_fleet_moves_total = %d, want %d", n, tc.moves)
			}
			doneIn := 0
			for _, dir := range journals {
				rec, err := server.LoadRecord(dir, st.ID)
				if err == nil && rec.State == server.StateDone {
					doneIn++
				}
			}
			if doneIn != 1 {
				t.Errorf("the job is done in %d journals, want 1", doneIn)
			}
		})
	}
}

// TestMoveDelayCountsCompletionsOnly: the move delay's p95 covers the
// completions of jobs the coordinator placed and never moved. A moved
// job's latency carries the move's own cost, and a done record read from
// a fenced node's journal dates from the fence, not from the job's end,
// so neither is a sample: after eight completions near 50 ms, the delay
// stays at their p95.
func TestMoveDelayCountsCompletionsOnly(t *testing.T) {
	done := server.Status{State: server.StateDone}
	place := func(c *Coordinator, id string, age time.Duration, moved bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.jobs[id] = &jobEntry{node: "a", created: time.Now().Add(-age), moved: moved}
	}
	for _, tc := range []struct {
		name string
		more func(t *testing.T, c *Coordinator)
	}{
		{"moved completions near 500 ms", func(t *testing.T, c *Coordinator) {
			for i := range 4 {
				id := fmt.Sprintf("job-a-moved-%d", i)
				place(c, id, 500*time.Millisecond, true)
				c.noteTerminal(id, done)
			}
		}},
		{"a done record read at a fence, placed 60 s before", func(t *testing.T, c *Coordinator) {
			dir := t.TempDir()
			s, err := server.New(server.Config{JournalDir: dir, NodeName: "a", Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			st, err := s.Submit(buildSpec(t, 3))
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, func() bool {
				got, _ := s.Status(st.ID)
				return got.State == server.StateDone
			}, "the job never finished")
			if err := s.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			place(c, st.ID, time.Minute, false)
			n := &node{Name: "a", Journal: dir, Fenced: true}
			c.mu.Lock()
			c.nodes["a"] = n
			c.mu.Unlock()
			c.fence(n)
			c.mu.Lock()
			defer c.mu.Unlock()
			if e := c.jobs[st.ID]; e.result == nil || e.result.State != server.StateDone {
				t.Errorf("fence served %+v for the done record, want its done status", e.result)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{HeartbeatEvery: time.Hour, MoveAfter: time.Millisecond})
			defer c.Close()
			for i := range 8 {
				id := fmt.Sprintf("job-a-%06d", i)
				place(c, id, time.Duration(45+i)*time.Millisecond, false)
				c.noteTerminal(id, done)
			}
			want := c.moveDelay()
			if want < 45*time.Millisecond || want > 100*time.Millisecond {
				t.Fatalf("the p95 of eight completions near 50 ms reads %v", want)
			}
			tc.more(t, c)
			if got := c.moveDelay(); got != want {
				t.Errorf("move delay = %v, want the unmoved completions' p95 %v", got, want)
			}
		})
	}
}
