package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/server"
)

// Fail-slow detection and hedged execution — the coordinator's half of
// the fleet's tail-latency contract (DESIGN §14).
//
// Fail-STOP nodes miss heartbeats and get fenced; fail-SLOW nodes beat
// on time and answer every probe, they just take ten times longer than
// their peers — the classic sick-machine failure mode heartbeats cannot
// see. The coordinator watches three latency signals per node (its own
// forward latency, the node's reported queue-wait, the node's reported
// journal-write latency), latches a `slow` posture on the outlier, and
// demotes — never fences — it in placement. For jobs already stuck on a
// slow node, a hedge launches a second copy on a healthy peer; the
// commit claim (first claimant wins) guarantees exactly one copy
// journals "done", and the loser is cancelled and steps aside as
// handed_off.

// copyRef names one copy of a job: the node it runs on and the hedge
// token it carries.
type copyRef struct {
	node  string
	token uint64
}

// Per-job hedge tokens: the original copy is armed with token 1, the
// hedge copy travels with token 2. The claim is keyed on (node, token),
// so even a copy that migrated nodes cannot be confused with its rival.
const (
	tokenPrimary = 1
	tokenHedge   = 2
)

// maxHedgesPerSweep bounds hedge launches per sweep — hedging is a
// tail-latency repair, not a second scheduler; a fleet-wide slowdown
// should surface as saturation, not double load.
const maxHedgesPerSweep = 8

// slowFloorMs is the absolute floor (milliseconds) below which a
// latency signal is never "slow": with every node fast, ratios between
// microsecond noise must not latch postures.
const slowFloorMs = 1.0

// minSlowPeers is how many alive nodes must report a latency signal
// before its fleet median is a baseline. With two, the lower median is
// the idler node's own reading, so the busier node would latch whenever
// its reading ran SlowFactor× its one peer's.
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

// noteTerminalLocked records a job's terminal status: servable result
// and a completion-latency sample for the hedge trigger. Callers hold
// mu.
func (c *Coordinator) noteTerminalLocked(id string, st server.Status) {
	e := c.entryLocked(id)
	if e.result == nil && !e.created.IsZero() {
		c.window.Observe(time.Since(e.created).Seconds())
	}
	e.result = &st
}

// noteTerminal is noteTerminalLocked for callers not holding mu.
func (c *Coordinator) noteTerminal(id string, st server.Status) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteTerminalLocked(id, st)
}

// updateSlow re-evaluates every alive node's fail-slow posture against
// the fleet medians. Latch when any signal exceeds SlowFactor × median
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
			threshold := c.cfg.SlowFactor * m
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

// hedgeDelay is how long a job may run before it earns a hedge:
// the p95 of recent fleet completions once enough samples exist, but
// never below the configured floor.
func (c *Coordinator) hedgeDelay() time.Duration {
	d := c.cfg.Hedge
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.window.Len() >= 8 {
		if p := time.Duration(c.window.Percentile(0.95) * float64(time.Second)); p > d {
			d = p
		}
	}
	return d
}

// hedgeSweep scans for jobs that have outrun the hedge delay and
// launches at most maxHedgesPerSweep hedge copies.
func (c *Coordinator) hedgeSweep() {
	if c.cfg.Hedge <= 0 {
		return
	}
	delay := c.hedgeDelay()
	now := time.Now()

	type target struct{ id, owner string }
	var due []target
	c.mu.Lock()
	for id, e := range c.jobs {
		if len(due) >= maxHedgesPerSweep {
			break
		}
		if e.created.IsZero() || now.Sub(e.created) < delay {
			continue
		}
		// Settled, claimed (only the claimant can commit now) or already
		// hedged: nothing to launch.
		if e.result != nil || e.claim.node != "" || e.copies[1] != "" {
			continue
		}
		if !e.deadline.IsZero() && now.After(e.deadline) {
			continue // past its deadline; a second copy helps nobody
		}
		owner := e.copies[0]
		n, ok := c.nodes[owner]
		if !ok || !n.alive() {
			continue // fencing/failover owns this job's fate
		}
		due = append(due, target{id: id, owner: owner})
	}
	c.mu.Unlock()

	for _, t := range due {
		c.hedge(t.id, t.owner)
	}
}

// hedge launches one hedge copy of job id: confirm the original is
// still running, arm the owner's commit claim, read the owner's durable
// record, and hand a token-2 copy to the best healthy peer. Every
// bail-out is safe — an armed original without a hedge just claims
// unopposed and wins.
func (c *Coordinator) hedge(id, owner string) {
	c.mu.Lock()
	n, ok := c.nodes[owner]
	var addr, journal string
	if ok {
		addr, journal = n.Addr, n.Journal
	}
	c.mu.Unlock()
	if !ok {
		return
	}

	// The status poll catches jobs that finished since the sweep
	// snapshot — and captures the result while at it.
	if st, ok := c.pollStatus(addr, id); ok && st.State.Terminal() {
		c.noteTerminal(id, st)
		return
	}

	// Arm the claim gate on the owner BEFORE the hedge copy exists:
	// from this moment the original cannot journal a terminal state
	// without winning the claim, so whatever the journal read below
	// sees, both copies are gated.
	st, armed, err := c.armClaim(addr, id, tokenPrimary)
	if err != nil {
		c.log.Log("fleet_hedge_error", "job", id, "step", "arm", "node", owner, "err", err.Error())
		return
	}
	if !armed {
		if st.Terminal() {
			if pst, ok := c.pollStatus(addr, id); ok {
				c.noteTerminal(id, pst)
			}
		}
		return // settled, handed off, or mid-commit: no hedge today
	}

	rec, err := server.LoadRecord(journal, id)
	if err != nil {
		c.log.Log("fleet_hedge_error", "job", id, "step", "read", "node", owner, "err", err.Error())
		return
	}
	if !rec.State.Live() {
		return // settled between arm and read; the claim is now unopposed
	}
	rec.HedgeToken = tokenHedge

	// The first non-slow candidate that is not the owner.
	for _, cand := range c.candidates() {
		c.mu.Lock()
		name, slow := cand.Name, cand.Slow
		c.mu.Unlock()
		if name == owner || slow {
			continue
		}
		if _, err := c.handoffTo(name, rec); err != nil {
			c.log.Log("fleet_hedge_error", "job", id, "step", "handoff", "node", name, "err", err.Error())
			continue
		}
		c.moveCopy(id, name, rec.HedgeToken, rec.Deadline, time.Time{})
		c.obs.hedgeLaunched.Inc()
		c.log.Log("fleet_hedge", "job", id, "owner", owner, "hedge", name)
		return
	}
	// No taker: the original stays armed and claims unopposed. Harmless.
}

// Claim arbitrates a commit: the first (node, token) pair to claim a
// job wins and may journal its terminal state; every later claimant
// loses and must step aside. An unclaimed unknown job wins by default —
// fail-open, because refusing would wedge a job whose coordinator
// restarted and lost its hedge bookkeeping.
func (c *Coordinator) Claim(id, nodeName string, token uint64) bool {
	c.mu.Lock()
	e := c.entryLocked(id)
	if e.claim.node != "" {
		win := e.claim == copyRef{node: nodeName, token: token}
		c.mu.Unlock()
		if win {
			c.obs.hedgeClaimWins.Inc() // idempotent re-claim by the winner
		} else {
			c.obs.hedgeClaimLoss.Inc()
		}
		return win
	}
	e.claim = copyRef{node: nodeName, token: token}
	// Cancel the other copy, and never on the winner's node: a copy
	// handed to the other copy's node is refused there as a duplicate
	// (409), which handoffTo counts as delivered, so both slots can name
	// one node.
	loser := e.copies[1-copySlot(token)]
	var loserAddr string
	if n, ok := c.nodes[loser]; ok && loser != nodeName && n.alive() {
		loserAddr = n.Addr
	}
	c.mu.Unlock()

	c.obs.hedgeClaimWins.Inc()
	c.log.Log("fleet_claim", "job", id, "winner", nodeName, "token", int(token))
	if loserAddr != "" {
		go c.cancelOn(loserAddr, loser, id)
	}
	return true
}

// cancelOn tells the losing copy's node to stop working on the job.
// Best-effort: a missed cancel costs wasted routing, never correctness
// — the loser's own commit claim will tell it to step aside.
func (c *Coordinator) cancelOn(addr, nodeName, id string) {
	resp, err := c.client.Post(addr+"/jobs/"+id+"/cancel", "application/json", nil)
	if err != nil {
		c.log.Log("fleet_hedge_cancel_error", "job", id, "node", nodeName, "err", err.Error())
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	c.obs.hedgeCancels.Inc()
	c.log.Log("fleet_hedge_cancel", "job", id, "node", nodeName)
}

// pollStatus fetches one job's status from a node; ok=false on any
// transport or decode trouble.
func (c *Coordinator) pollStatus(addr, id string) (server.Status, bool) {
	resp, err := c.client.Get(addr + "/jobs/" + id)
	if err != nil {
		return server.Status{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.Status{}, false
	}
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.Status{}, false
	}
	return st, true
}

// armClaim asks a node to gate a job behind the commit claim.
func (c *Coordinator) armClaim(addr, id string, token uint64) (server.State, bool, error) {
	body, _ := json.Marshal(map[string]any{"job": id, "token": token})
	resp, err := c.client.Post(addr+"/fleet/hedge-arm", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return "", false, fmt.Errorf("arm: %d %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var out struct {
		State server.State `json:"state"`
		Armed bool         `json:"armed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", false, err
	}
	return out.State, out.Armed, nil
}

// claimRequest is the POST /hedge/claim payload a node sends before
// journaling a terminal state for a hedge-gated job.
type claimRequest struct {
	Job   string `json:"job"`
	Node  string `json:"node"`
	Token uint64 `json:"token"`
}

// ClaimClient builds the server.Config.ClaimCommit implementation for a
// worker node: it claims (job, token) at the coordinator on behalf of
// nodeName. A transport failure surfaces as an error — the server
// retries a few times and, for the done path, falls back to a normal
// transient retry, so a briefly unreachable coordinator delays a hedged
// commit rather than corrupting it.
func ClaimClient(coordinator, nodeName string, client *http.Client) func(string, uint64) (bool, error) {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return func(jobID string, token uint64) (bool, error) {
		body, err := json.Marshal(claimRequest{Job: jobID, Node: nodeName, Token: token})
		if err != nil {
			return false, err
		}
		resp, err := client.Post(coordinator+"/hedge/claim", "application/json", bytes.NewReader(body))
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return false, fmt.Errorf("fleet: claim: %d %s", resp.StatusCode, bytes.TrimSpace(b))
		}
		var out struct {
			Win bool `json:"win"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return false, err
		}
		return out.Win, nil
	}
}
