package fleet

import (
	"net/http"
	"slices"
	"time"

	"repro/internal/server"
)

// Straggler moves — the coordinator's half of the fleet's tail-latency
// contract (DESIGN §14).
//
// Fail-STOP nodes miss heartbeats and get fenced; fail-SLOW nodes beat
// on time and answer every probe, they just take ten times longer than
// their peers — the sick-machine failure mode heartbeats cannot see.
// Placement already sends a slow node fewer jobs: its jobs stay in
// flight longer, and candidates() ranks nodes by jobs in flight, then
// by their own latest attempt time. A job already stuck on a slow node
// is moved: stolen from its owner wherever it is in its run and resumed
// on a peer from its last durable checkpoint. The pass loop is
// deterministic, so the moved job finishes bit-identically, and it has
// one live copy at every instant.

// maxMovesPerSweep bounds moves per sweep — a move is a tail-latency
// repair, not a second scheduler; a fleet-wide slowdown should surface
// as saturation, not as jobs shuffled between nodes.
const maxMovesPerSweep = 8

// noteTerminal records the terminal status the node holding job id
// reported: the servable result and, for a job the coordinator placed
// and never moved, a completion-latency sample for the move delay. A
// moved job's latency carries the move's own cost, so it is no sample.
func (c *Coordinator) noteTerminal(id string, st server.Status) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entryLocked(id)
	if e.result == nil && !e.created.IsZero() && !e.moved {
		c.window.Observe(time.Since(e.created).Seconds())
	}
	e.result = &st
}

// moveDelay is how long a job may run before it is moved: the p95 of
// recent fleet completions once enough samples exist, but never below
// the configured floor.
func (c *Coordinator) moveDelay() time.Duration {
	d := c.cfg.MoveAfter
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.window.Len() >= 8 {
		if p := time.Duration(c.window.Percentile(0.95) * float64(time.Second)); p > d {
			d = p
		}
	}
	return d
}

// moveSweep moves each job that has outrun the move delay, at most
// maxMovesPerSweep a sweep: the job goes into transit, asked for by ID
// from the node that holds it.
func (c *Coordinator) moveSweep() {
	if c.cfg.MoveAfter <= 0 {
		return
	}
	delay := c.moveDelay()
	cands := c.candidates()
	now := time.Now()

	c.mu.Lock()
	defer c.mu.Unlock()
	started := 0
	for id, e := range c.jobs {
		if started == maxMovesPerSweep {
			break
		}
		// Only a job the coordinator placed, still live, never moved, and
		// not in transit.
		if e.created.IsZero() || now.Sub(e.created) < delay || e.result != nil || e.moved || c.transits[id] != nil {
			continue
		}
		if !e.deadline.IsZero() && now.After(e.deadline) {
			continue // past its deadline; a move helps nobody
		}
		n, ok := c.nodes[e.node]
		if !ok || !n.alive() {
			continue // fencing/failover owns this job's fate
		}
		if !slices.ContainsFunc(cands, func(n *node) bool { return n.Name != e.node }) {
			continue // no peer to take it yet; a later sweep may find one
		}
		e.moved = true
		c.startLocked(id, &transit{from: n, move: true})
		started++
	}
}

// ClaimClient returns a commit gate that always grants the commit.
//
// Deprecated: a job has one live copy, so no commit needs arbitration;
// the benchmark module still wires it into server.Config.ClaimCommit.
func ClaimClient(coordinator, nodeName string, client *http.Client) func(string, uint64) (bool, error) {
	return func(string, uint64) (bool, error) { return true, nil }
}
