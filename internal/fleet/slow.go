package fleet

import (
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/server"
)

// Fail-slow detection and straggler moves — the coordinator's half of
// the fleet's tail-latency contract (DESIGN §14).
//
// Fail-STOP nodes miss heartbeats and get fenced; fail-SLOW nodes beat
// on time and answer every probe, they just take ten times longer than
// their peers — the classic sick-machine failure mode heartbeats cannot
// see. The coordinator watches three latency signals per node (its own
// forward latency, the node's reported queue-wait, the node's reported
// journal-write latency), latches a `slow` posture on the outlier, and
// demotes — never fences — it in placement. A job already stuck on a
// slow node is moved: stolen from its owner wherever it is in its run
// and resumed on a healthy peer from its last durable checkpoint. The
// pass loop is deterministic, so the moved job finishes bit-identically,
// and it has one live copy at every instant.

// maxMovesPerSweep bounds moves per sweep — a move is a tail-latency
// repair, not a second scheduler; a fleet-wide slowdown should surface
// as saturation, not as jobs shuffled between nodes.
const maxMovesPerSweep = 8

// slowFloorMs is the absolute floor (milliseconds) below which a
// latency signal is never "slow": with every node fast, ratios between
// microsecond noise must not latch postures.
const slowFloorMs = 1.0

// slowFactor is how far over the fleet's lower median a latency signal
// must run to latch a node slow; the node unlatches below half that.
const slowFactor = 3.0

// minSlowPeers is how many alive nodes must report a latency signal
// before its fleet median is a baseline. With two, the lower median is
// the idler node's own reading, so the busier node would latch whenever
// its reading ran slowFactor× its one peer's.
const minSlowPeers = 3

// noteForward feeds one coordinator→node round-trip into the node's
// forward-latency EWMA. Failures count double time naturally: a
// timed-out Post took as long as its timeout.
func (c *Coordinator) noteForward(name string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.nodes[name]; ok && n.fwd != nil {
		n.fwd.Observe(d.Seconds() * 1000)
	}
}

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

// updateSlow re-evaluates every alive node's fail-slow posture against
// the fleet medians. Latch when any signal exceeds slowFactor × median
// (and the absolute floor); unlatch when every signal is back under
// half the latch threshold — the hysteresis keeps a borderline node
// from flapping between postures every sweep. A signal fewer than
// minSlowPeers nodes report has no median, so it neither latches a
// node nor holds one latched.
func (c *Coordinator) updateSlow() {
	c.mu.Lock()
	defer c.mu.Unlock()

	type signals struct {
		n   *node
		fwd float64 // coordinator-observed forward latency, ms (0 = no data)
		qw  float64 // node-reported queue wait, ms
		dw  float64 // node-reported journal-write latency, ms
	}
	var all []signals
	for _, n := range c.nodes {
		if !n.alive() {
			continue
		}
		sig := signals{n: n, qw: n.Load.QueueWaitMs, dw: n.Load.DiskWriteMs}
		if n.fwd != nil && n.fwd.Samples() >= 3 {
			sig.fwd = n.fwd.Value()
		}
		all = append(all, sig)
	}

	// median is a signal's fleet baseline, 0 while fewer than
	// minSlowPeers nodes report it: "slower than the fleet" needs a
	// fleet to compare against. It is the lower median, biased toward
	// the healthy majority for even counts: in a fleet of 4 with one
	// sick node, the baseline is a healthy node's value.
	median := func(get func(signals) float64) float64 {
		var vs []float64
		for _, s := range all {
			if v := get(s); v > 0 {
				vs = append(vs, v)
			}
		}
		if len(vs) < minSlowPeers {
			return 0
		}
		sort.Float64s(vs)
		return vs[(len(vs)-1)/2]
	}
	medians := [3]float64{
		median(func(s signals) float64 { return s.fwd }),
		median(func(s signals) float64 { return s.qw }),
		median(func(s signals) float64 { return s.dw }),
	}

	names := [3]string{"fwd", "queue", "disk"}
	slowCount := int64(0)
	for _, s := range all {
		vals := [3]float64{s.fwd, s.qw, s.dw}
		clear := true
		var crossed []string // signals over their threshold
		var why []any        // their medians and thresholds, for the log
		for i, v := range vals {
			m := medians[i]
			if v <= 0 || m <= 0 {
				continue
			}
			threshold := slowFactor * m
			if threshold < slowFloorMs {
				threshold = slowFloorMs
			}
			if v > threshold {
				crossed = append(crossed, names[i])
				why = append(why, names[i]+"_median_ms", fmt.Sprintf("%.1f", m),
					names[i]+"_threshold_ms", fmt.Sprintf("%.1f", threshold))
			}
			if v > threshold/2 {
				clear = false
			}
		}
		was := s.n.Slow
		switch {
		case len(crossed) > 0:
			s.n.Slow = true
		case clear:
			s.n.Slow = false
		}
		if s.n.Slow != was {
			c.obs.slowTransitions.Inc()
			kv := []any{"node", s.n.Name, "slow", s.n.Slow}
			if len(crossed) > 0 {
				kv = append(kv, "signal", strings.Join(crossed, ","))
			}
			kv = append(kv, "fwd_ms", fmt.Sprintf("%.1f", s.fwd), "queue_ms", fmt.Sprintf("%.1f", s.qw),
				"disk_ms", fmt.Sprintf("%.1f", s.dw))
			c.log.Log("fleet_slow", append(kv, why...)...)
		}
		if s.n.Slow {
			slowCount++
		}
	}
	c.obs.slowNodes.Set(slowCount)
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
		if !slices.ContainsFunc(cands, func(n *node) bool { return n.Name != e.node && !n.Slow }) {
			continue // no healthy peer to take it yet; a later sweep may find one
		}
		e.moved = true
		c.startLocked(id, &transit{from: n, move: true})
		started++
	}
}

// moveTargets lists where a job moved off donor may go: the non-slow
// candidates other than donor, best first — except that the last move's
// target goes last when another peer is there. That rotation serves
// TestFleetSlowSoak's one-job-at-a-time stream, where every job lands on
// the idle slow node: with every move on one peer, only two nodes would
// report a latency signal, fewer than minSlowPeers, and the slow node
// would not latch (DESIGN §14). No other traffic has measured it.
func (c *Coordinator) moveTargets(donor string) []*node {
	cands := c.candidates()
	c.mu.Lock()
	defer c.mu.Unlock()
	var peers []*node
	for _, n := range cands {
		if n.Name != donor && !n.Slow {
			peers = append(peers, n)
		}
	}
	if len(peers) > 1 && peers[0].Name == c.lastMove {
		peers = append(peers[1:], peers[0])
	}
	return peers
}

// ClaimClient returns a commit gate that always grants the commit.
//
// Deprecated: a job has one live copy, so no commit needs arbitration;
// the benchmark module still wires it into server.Config.ClaimCommit.
func ClaimClient(coordinator, nodeName string, client *http.Client) func(string, uint64) (bool, error) {
	return func(string, uint64) (bool, error) { return true, nil }
}
