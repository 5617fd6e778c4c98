// Package fleet turns a set of grrd daemons into one fault-tolerant
// routing service. A Coordinator fronts N worker nodes:
//
//   - jobs are admitted at the coordinator and placed on the node with
//     the fewest jobs in flight, ties going to the node whose latest
//     attempt ran shortest, then forwarded with bounded retry and
//     jittered exponential backoff (server.Backoff, the one grrd spaces
//     its own job retries with);
//   - workers heartbeat their occupancy (the server.Load report); a
//     node that misses its deadline is FENCED — its journal epoch is
//     bumped with the fenced marker, so a zombie that was merely
//     partitioned can never journal (and thus never double-commit)
//     again — and its live jobs are recovered from the journal and
//     resumed on peers, bit-identically, from their last durable
//     checkpoint;
//   - a waiting job that a node names is taken, through the
//     coordinator, when another node has an idle worker (work
//     stealing), keeping the fleet busy without the workers knowing
//     about each other, and a straggler is stolen from its node and
//     resumed on a peer (DESIGN §14); every such job is in transit, one
//     entry per job, until a node takes it (transit.go);
//   - a submission passes grrd's own request checks (server.DecodeSpec,
//     server.ValidateDeadline) before it is placed, and a node's 400
//     ends the walk, so a client gets the status a standalone grrd
//     would give it.
//
// Degradation is graceful in both directions: a worker that cannot
// reach the coordinator keeps serving its local queue (the agent just
// retries joining), and a coordinator whose pool has shrunk to nothing
// sheds load with 429 + Retry-After exactly like a single saturated
// grrd.
//
// The fencing model assumes the coordinator can reach each node's
// journal directory through the filesystem (shared storage or
// single-host supervision). What travels over HTTP is job records in
// the checksummed grrdjob format — a truncated transfer fails its
// checksum, it cannot admit half a job.
package fleet

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// Config parameterizes a Coordinator. Zero values get defaults from
// New.
type Config struct {
	// HeartbeatEvery is the cadence workers are expected to beat at
	// (default 1s). The coordinator also sweeps at this cadence.
	HeartbeatEvery time.Duration
	// HeartbeatMiss is how many consecutive beats a node may miss
	// before it is declared dead and fenced (default 3): the failover
	// deadline is HeartbeatEvery × HeartbeatMiss.
	HeartbeatMiss int
	// RetryBase and RetryMax shape the forwarding backoff exactly like
	// server.Config shapes job retries: attempt n waits roughly
	// RetryBase·2ⁿ⁻¹ jittered to [d/2, d), capped at RetryMax
	// (defaults 10ms, 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Transport is the HTTP transport for all coordinator→node calls —
	// the seam the chaos tests wire a faultinject.Partition into. Nil
	// uses http.DefaultTransport.
	Transport http.RoundTripper
	// Log, when set, receives the coordinator's events (join, fence,
	// handoff, steal, move, and the errors on those paths). Nil is
	// fine.
	Log *obs.Logger
	// Metrics, when set, is the registry the coordinator publishes
	// fleet series into (and serves at /metrics).
	Metrics *obs.Registry
	// MoveAfter enables straggler moves (DESIGN §14): a job the
	// coordinator placed that is still unfinished after max(MoveAfter,
	// p95 of recent completions) is stolen from its node and resumed on
	// a peer from its last durable checkpoint. Zero or negative turns
	// moves off.
	MoveAfter time.Duration
}

// retrySeed seeds the coordinator's backoff jitter, which has no
// correctness role; a fixed seed replays its schedule.
const retrySeed = 1

func (c *Config) setDefaults() {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.HeartbeatMiss <= 0 {
		c.HeartbeatMiss = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
}

// NodeView is the exported name of the coordinator's per-worker state,
// as served by GET /nodes and returned by Nodes.
type NodeView = node

// node is the coordinator's view of one worker.
type node struct {
	Name    string      `json:"node"`
	Addr    string      `json:"addr"`    // base URL, e.g. http://127.0.0.1:8377
	Journal string      `json:"journal"` // journal dir (reachable via the filesystem)
	Epoch   uint64      `json:"epoch"`
	Load    server.Load `json:"load"`
	Fenced  bool        `json:"fenced"`

	lastBeat time.Time
	// sent counts the jobs the coordinator has delivered to the node
	// since its last heartbeat, which Load.Live does not show yet.
	sent int
}

// alive reports whether the node is scheduling-eligible at all.
func (n *node) alive() bool { return !n.Fenced }

// inFlight is the node's jobs in flight as the coordinator knows them:
// the live count of its last heartbeat plus what was delivered since.
func (n *node) inFlight() int { return n.Load.Live + n.sent }

// jobEntry is everything the coordinator knows about one job.
type jobEntry struct {
	// node is the node that holds the job's one live copy.
	node string
	// created is when the coordinator placed the job (zero for jobs it
	// learned about through a steal or recovery); the move trigger and
	// the completion-latency window measure from it.
	created time.Time
	// deadline is the job's absolute deadline; zero = none. Moving a job
	// whose deadline passed is pointless.
	deadline time.Time
	// moved is set once the coordinator has asked to move the job; a job
	// is moved at most once.
	moved bool
	// result is the job's terminal status; nil while the job is live.
	// It outlives the node that computed it.
	result *server.Status
}

// Coordinator is the fleet's front door and failure detector.
type Coordinator struct {
	cfg    Config
	client *http.Client
	obs    *fleetObs
	log    *obs.Logger
	// backoff spaces transport retries of one forward (RetryBase,
	// RetryMax and the fixed seed retrySeed).
	backoff *server.Backoff

	mu    sync.Mutex
	nodes map[string]*node
	jobs  map[string]*jobEntry
	// transits holds the jobs on their way between nodes, one entry per
	// job ID (transit.go, §12.3).
	transits map[string]*transit
	// window holds recent job completion latencies (seconds); its p95
	// sets the move delay once enough samples exist.
	window *obs.Window

	// ctx ends with Close; it bounds the sweep loop, the steps of jobs in
	// transit and the coordinator's own calls to nodes.
	ctx    context.Context
	cancel context.CancelFunc
	stopWg sync.WaitGroup
}

// New builds a Coordinator and starts its sweep loop (failure
// detection, work stealing, moves, jobs in transit). Close stops it.
func New(cfg Config) *Coordinator {
	cfg.setDefaults()
	c := &Coordinator{
		cfg:      cfg,
		client:   &http.Client{Transport: cfg.Transport, Timeout: 30 * time.Second},
		obs:      newFleetObs(cfg.Metrics),
		log:      cfg.Log,
		backoff:  server.NewBackoff(cfg.RetryBase, cfg.RetryMax, retrySeed),
		nodes:    make(map[string]*node),
		jobs:     make(map[string]*jobEntry),
		transits: make(map[string]*transit),
		window:   obs.NewWindow(256),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.stopWg.Add(1)
	go c.sweepLoop()
	return c
}

// Close stops the sweep loop and the steps in progress. In-flight HTTP
// handlers finish on their own; the coordinator serves until its
// listener closes.
func (c *Coordinator) Close() {
	c.cancel()
	c.stopWg.Wait()
}

// Join registers (or re-registers) a worker. A known name is replaced
// wholesale: a rejoin is a new incarnation — the server itself refuses
// to start on a fenced journal dir, so an incarnation that made it far
// enough to join is journaling somewhere legitimate.
func (c *Coordinator) Join(name, addr, journal string, epoch uint64, load server.Load) error {
	if name == "" || addr == "" {
		return errors.New("fleet: join needs node name and addr")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.nodes[name]; ok && old.alive() && old.Journal != journal {
		// Two live daemons claiming one name but different journals is
		// operator error, and accepting the second would let them shadow
		// each other's jobs. First writer wins.
		return fmt.Errorf("fleet: node %s already joined with journal %s", name, old.Journal)
	}
	c.nodes[name] = &node{
		Name: name, Addr: addr, Journal: journal, Epoch: epoch,
		Load: load, lastBeat: time.Now(),
	}
	c.obs.joined.Inc()
	c.publishNodeGauges()
	c.log.Log("fleet_join", "node", name, "addr", addr, "journal", journal, "epoch", epoch)
	return nil
}

// errFencedNode marks a heartbeat or join from an incarnation the
// fleet has already fenced: the HTTP layer answers 410 Gone.
var errFencedNode = errors.New("fleet: node is fenced")

// Heartbeat records a beat from a worker. An unknown name asks the
// agent to re-join; a fenced node (or a stale epoch — a zombie from a
// previous incarnation) is told it is gone.
func (c *Coordinator) Heartbeat(name string, epoch uint64, load server.Load) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("fleet: unknown node %s", name)
	}
	if n.Fenced || epoch != n.Epoch {
		return fmt.Errorf("%w: %s (epoch %d, fleet has %d)", errFencedNode, name, epoch, n.Epoch)
	}
	n.lastBeat = time.Now()
	n.Load, n.sent = load, 0
	c.obs.heartbeats.Inc()
	c.publishNodeGauges()
	return nil
}

// Nodes returns the coordinator's current fleet view, sorted by name.
func (c *Coordinator) Nodes() []node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]node, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, *n)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// sweepLoop is the coordinator's heartbeat: every HeartbeatEvery it
// checks deadlines, fences the dead, advances every job in transit,
// brokers one work-steal and starts moves.
func (c *Coordinator) sweepLoop() {
	defer c.stopWg.Done()
	t := time.NewTicker(c.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.sweep()
		}
	}
}

// sweep runs one round of failure detection and rebalancing.
func (c *Coordinator) sweep() {
	deadline := time.Duration(c.cfg.HeartbeatMiss) * c.cfg.HeartbeatEvery
	now := time.Now()

	c.mu.Lock()
	var dead []*node
	for _, n := range c.nodes {
		if n.alive() && now.Sub(n.lastBeat) > deadline {
			n.Fenced = true // claim it under the lock; fence outside
			dead = append(dead, n)
		}
	}
	c.publishNodeGauges()
	c.mu.Unlock()

	for _, n := range dead {
		c.fence(n)
	}
	c.mu.Lock()
	for id, t := range c.transits {
		if !t.busy {
			c.startLocked(id, t)
		}
	}
	c.mu.Unlock()
	c.stealOnce()
	c.moveSweep()
}

// fence finalizes a dead node: bump its journal epoch with the fenced
// marker (from this instant every journal write the zombie attempts is
// refused — it cannot double-commit), then recover its jobs from the
// journal: terminal records become servable results, and each live
// record of a job not already in transit puts the job in transit, for
// resumption on a peer.
func (c *Coordinator) fence(n *node) {
	c.obs.fenced.Inc()
	epoch, err := server.FenceJournal(n.Journal)
	if err != nil {
		// The journal dir is gone or unwritable. Nothing to recover from —
		// but also nothing a zombie could commit to. Log and move on.
		c.log.Log("fleet_fence_error", "node", n.Name, "err", err.Error())
		return
	}
	c.log.Log("fleet_fence", "node", n.Name, "epoch", epoch)

	recs, err := server.LoadRecords(n.Journal, func(path string, err error) {
		c.log.Log("fleet_record_corrupt", "node", n.Name, "path", path, "err", err.Error())
	})
	if err != nil {
		c.log.Log("fleet_recover_error", "node", n.Name, "err", err.Error())
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rec := range recs {
		switch {
		case rec.State.Live() && c.transits[rec.ID] == nil:
			// Its first step reads the record, as for every job in transit
			// whose node is gone.
			c.transits[rec.ID] = &transit{from: n}
		case rec.State.Terminal():
			// The node is gone but its answers are not: serve them from here.
			st := rec.Status()
			c.entryLocked(rec.ID).result = &st
		}
	}
}

// stealOnce brokers at most one steal per sweep: the donor is the first
// node by name, alive and not draining, whose heartbeat names a waiting
// job not in transit while another ready node has an idle worker — a
// free admission slot is not enough, since a steal to a node whose
// workers are all busy only re-queues the job. One per sweep keeps
// rebalancing gentle. The donor then names its job afresh (GET /load),
// since a heartbeat's name is up to a beat old, and a short job is done
// by then; the job goes wherever a move's would (homes).
func (c *Coordinator) stealOnce() {
	c.mu.Lock()
	idleElsewhere := func(donor *node) bool {
		for _, n := range c.nodes {
			if n != donor && n.alive() && n.Load.Health == server.HealthReady && n.inFlight() < n.Load.Workers {
				return true
			}
		}
		return false
	}
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	var donor *node
	for _, name := range names {
		n := c.nodes[name]
		if n.alive() && n.Load.Health != server.HealthDraining && n.Load.Steal != "" &&
			c.transits[n.Load.Steal] == nil && idleElsewhere(n) {
			donor = n
			break
		}
	}
	c.mu.Unlock()
	if donor == nil {
		return
	}

	var l server.Load
	resp, err := c.request(http.MethodGet, donor.Addr+"/load", "", nil)
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&l)
		resp.Body.Close()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err != nil:
		c.log.Log("fleet_steal_error", "node", donor.Name, "err", err.Error())
	case l.Steal != "" && c.transits[l.Steal] == nil:
		c.startLocked(l.Steal, &transit{from: donor, steal: true})
	}
}

// moveJob records that node now holds job id, creating the job's entry
// on first sight, and counts the job among those delivered to node
// since its last heartbeat. Placement and every delivery of a job in
// transit record here; placement alone passes the time it placed the
// job, which starts the move clock.
func (c *Coordinator) moveJob(id, nodeName string, deadline, placed time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entryLocked(id)
	e.node = nodeName
	e.deadline = deadline
	if !placed.IsZero() {
		e.created = placed
	}
	if n, ok := c.nodes[nodeName]; ok {
		n.sent++
	}
}

// entryLocked returns job id's entry, creating it on first sight.
// Callers hold mu.
func (c *Coordinator) entryLocked(id string) *jobEntry {
	e, ok := c.jobs[id]
	if !ok {
		e = &jobEntry{}
		c.jobs[id] = e
	}
	return e
}

// candidates returns the scheduling-eligible nodes, best first, in two
// tiers: ready nodes, then saturated nodes (they shed load themselves,
// but they are alive and their refusal carries a Retry-After worth
// propagating). Draining, fenced and disk-degraded nodes never appear —
// the last would only answer 507, so admissions route around it until
// its self-probe reports the disk healed and its heartbeat turns ready
// again. Within a tier, fewer jobs in flight come first (join the
// shortest queue), then the shorter latest attempt time the node's
// own heartbeat reports — a node with no attempt yet first, so every
// node gets tried — then the node name. Each node is ranked by its own
// numbers, never against a fleet baseline, and two coordinators looking
// at the same fleet walk candidates identically.
func (c *Coordinator) candidates() []*node {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ready, saturated []*node
	for _, n := range c.nodes {
		if !n.alive() {
			continue
		}
		switch n.Load.Health {
		case server.HealthReady:
			ready = append(ready, n)
		case server.HealthSaturated:
			saturated = append(saturated, n)
		}
	}
	rank := func(a, b *node) int {
		return cmp.Or(cmp.Compare(a.inFlight(), b.inFlight()),
			cmp.Compare(a.Load.AttemptMs, b.Load.AttemptMs),
			strings.Compare(a.Name, b.Name))
	}
	slices.SortFunc(ready, rank)
	slices.SortFunc(saturated, rank)
	return append(ready, saturated...)
}

// sleep waits d or until the coordinator stops.
func (c *Coordinator) sleep(d time.Duration) {
	select {
	case <-c.ctx.Done():
	case <-time.After(d):
	}
}

// publishNodeGauges refreshes the per-health node-count gauges.
// Callers hold mu.
func (c *Coordinator) publishNodeGauges() {
	counts := map[string]int64{}
	for _, n := range c.nodes {
		switch {
		case n.Fenced:
			counts["fenced"]++
		default:
			counts[n.Load.Health]++
		}
	}
	for state, g := range c.obs.nodesByState {
		g.Set(counts[state])
	}
}
