// Package fleet turns a set of grrd daemons into one fault-tolerant
// routing service. A Coordinator fronts N worker nodes:
//
//   - jobs are admitted at the coordinator and placed on the node with
//     the fewest jobs in flight, then forwarded with bounded retry and
//     jittered exponential backoff (server.Backoff, the one grrd spaces
//     its own job retries with);
//   - workers heartbeat their occupancy (the server.Load report); a
//     node that misses its deadline is FENCED — its journal epoch is
//     bumped with the fenced marker, so a zombie that was merely
//     partitioned can never journal (and thus never double-commit)
//     again — and its live jobs are recovered from the journal and
//     resumed on peers, bit-identically, from their last durable
//     checkpoint;
//   - an idle node pulls queued work from the most-loaded peer through
//     the coordinator (work stealing), keeping the fleet busy without
//     the workers knowing about each other, and a straggler is stolen
//     from its node and resumed on a healthy peer (DESIGN §14);
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
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"sort"
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
	// a healthy peer from its last durable checkpoint. Zero or negative
	// turns moves off.
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
	// Slow is the latched fail-slow posture (DESIGN §14): the node is
	// alive and correct but dragging the fleet's tail, so placement
	// demotes it below every healthy ready node — demoted, not fenced,
	// because a slow answer is still an answer.
	Slow bool `json:"slow,omitempty"`

	lastBeat time.Time
	// sent counts the jobs the coordinator has delivered to the node
	// since its last heartbeat, which Load.Live does not show yet.
	sent int
	// fwd tracks coordinator-observed forward latency to this node
	// (seconds) — the one fail-slow signal the node cannot misreport.
	fwd *obs.EWMA
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

	mu      sync.Mutex
	nodes   map[string]*node
	jobs    map[string]*jobEntry
	pending []*server.Job // recovered/stolen records awaiting a home, in arrival order
	// doubt holds the pending records whose last offer went unanswered:
	// the node offered may hold the job (§12.3).
	doubt map[*server.Job]lostOffer
	// moves holds the straggler moves in progress, by job ID (§14).
	moves map[string]*move
	// lastMove is the node the latest move delivered a job to.
	lastMove string
	// window holds recent job completion latencies (seconds); its p95
	// sets the move delay once enough samples exist.
	window *obs.Window

	// ctx ends with Close; it bounds the sweep loop, the moves and the
	// coordinator's own calls to nodes.
	ctx    context.Context
	cancel context.CancelFunc
	stopWg sync.WaitGroup
}

// New builds a Coordinator and starts its sweep loop (failure
// detection, handoff delivery, work stealing). Close stops it.
func New(cfg Config) *Coordinator {
	cfg.setDefaults()
	c := &Coordinator{
		cfg:     cfg,
		client:  &http.Client{Transport: cfg.Transport, Timeout: 30 * time.Second},
		obs:     newFleetObs(cfg.Metrics),
		log:     cfg.Log,
		backoff: server.NewBackoff(cfg.RetryBase, cfg.RetryMax, retrySeed),
		nodes:   make(map[string]*node),
		jobs:    make(map[string]*jobEntry),
		doubt:   make(map[*server.Job]lostOffer),
		moves:   make(map[string]*move),
		window:  obs.NewWindow(256),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.stopWg.Add(1)
	go c.sweepLoop()
	return c
}

// Close stops the sweep loop and the moves in progress. In-flight HTTP
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
		Load: load, lastBeat: time.Now(), fwd: obs.NewEWMA(0.3),
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
// checks deadlines, fences the dead, delivers pending handoffs, and
// brokers one work-steal.
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
	c.updateSlow()
	c.deliverPending()
	c.stealOnce()
	c.moveSweep()
}

// fence finalizes a dead node: bump its journal epoch with the fenced
// marker (from this instant every journal write the zombie attempts is
// refused — it cannot double-commit), then recover its jobs from the
// journal: terminal records become servable results, live records go
// to the pending-handoff list for resumption on a peer.
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
	for _, rec := range recs {
		if rec.State.Live() {
			c.pending = append(c.pending, rec)
			c.obs.recoveredJobs.Inc()
			c.log.Log("fleet_job_recovered", "job", rec.ID, "from", n.Name,
				"state", string(rec.State), "attempt", rec.Attempt)
			continue
		}
		if rec.State.Terminal() {
			// The node is gone but its answers are not: serve them from here.
			c.noteTerminalLocked(rec.ID, rec.Status())
		}
	}
	c.obs.pendingGauge.Set(int64(len(c.pending)))
	c.mu.Unlock()
}

// deliverPending tries to re-home every recovered/stolen record. A
// record that finds no taker stays pending for the next sweep — jobs
// are never dropped, they wait for capacity.
func (c *Coordinator) deliverPending() {
	c.mu.Lock()
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()

	for _, rec := range pending {
		names, drop := c.homesFor(rec)
		if drop {
			continue
		}
		target, err := c.offer(rec, names)
		c.mu.Lock()
		if err != nil {
			c.parkLocked(rec, target, err)
		} else {
			delete(c.doubt, rec)
		}
		c.mu.Unlock()
		if err != nil {
			c.log.Log("fleet_handoff_wait", "job", rec.ID, "err", err.Error())
			continue
		}
		c.moveJob(rec.ID, target, rec.Deadline, time.Time{})
		c.obs.handoffs.Inc()
		c.log.Log("fleet_handoff", "job", rec.ID, "to", target, "attempt", rec.Attempt)
	}
	c.mu.Lock()
	c.obs.pendingGauge.Set(int64(len(c.pending)))
	c.mu.Unlock()
}

// lostOffer is an offer of a pending record whose answer was lost: the
// node it went to, and that node's journal dir at the time.
type lostOffer struct{ node, journal string }

// homesFor lists the nodes a pending record may be offered to, best
// first, or reports that the record is no longer needed. A record in
// doubt goes only to the node its lost offer went to, while that node
// lives: its 202 or 409 settles the doubt, and a refusal settles
// nothing (a draining node refuses before it looks for the job). Once
// that node is fenced, its journal settles it: a record there that is
// not handed_off is the job — fence has recovered it — so this copy
// goes; with none, the node never adopted it and any candidate may.
func (c *Coordinator) homesFor(rec *server.Job) (names []string, drop bool) {
	c.mu.Lock()
	o, inDoubt := c.doubt[rec]
	offered := inDoubt && c.nodes[o.node].alive() && c.nodes[o.node].Journal == o.journal
	c.mu.Unlock()
	if offered {
		return []string{o.node}, false
	}
	if inDoubt {
		held, err := server.LoadRecord(o.journal, rec.ID)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, false // unreadable for now: still in doubt
		}
		c.mu.Lock()
		delete(c.doubt, rec)
		c.mu.Unlock()
		if err == nil && held.State != server.StateHandedOff {
			return nil, true
		}
	}
	for _, n := range c.candidates() {
		names = append(names, n.Name)
	}
	return names, false
}

// parkLocked puts rec on the pending list after offer failed with err;
// an offer to node name whose answer was lost leaves rec in doubt there.
// Callers hold mu.
func (c *Coordinator) parkLocked(rec *server.Job, name string, err error) {
	c.pending = append(c.pending, rec)
	if errors.Is(err, errUnanswered) {
		c.doubt[rec] = lostOffer{node: name, journal: c.nodes[name].Journal}
	}
	c.obs.pendingGauge.Set(int64(len(c.pending)))
}

// stealOnce brokers at most one steal per sweep: the idlest ready node
// pulls one queued job from the most-loaded peer. One per sweep keeps
// rebalancing gentle — a persistent imbalance drains over a few
// sweeps; a transient one often resolves itself first.
func (c *Coordinator) stealOnce() {
	diskDegraded := func(n *node) bool { return n.Load.Disk == "degraded" }
	c.mu.Lock()
	moving := make(map[string]bool, len(c.moves)+len(c.doubt))
	for _, m := range c.moves {
		moving[m.donor] = true
	}
	for _, o := range c.doubt {
		moving[o.node] = true
	}
	var donor, thief *node
	for _, n := range c.nodes {
		if !n.alive() {
			continue
		}
		// Donors: anything with queued work that is not leaving. Saturated
		// nodes are prime donors (that is what the /readyz split is for);
		// draining and fenced nodes are drain-only — their queue is the
		// failover path's business, not the stealer's. A disk-degraded
		// donor outranks every healthy one: its queue cannot run locally
		// until the disk heals, so moving it is never premature. A node a
		// move is taking a job from waits until the move settles: a move
		// that asks again counts a job handed off there as its own steal's
		// (takeBack). So does a node a record is in doubt on: it may hold
		// that job, and the record's next offer there would re-adopt a
		// job it had handed off.
		if n.Load.Queued > 0 && n.Load.Health != server.HealthDraining && !moving[n.Name] &&
			(donor == nil ||
				(diskDegraded(n) && !diskDegraded(donor)) ||
				(diskDegraded(n) == diskDegraded(donor) && n.Load.Queued > donor.Load.Queued)) {
			donor = n
		}
		// Thieves: ready nodes with free capacity, idlest first.
		if n.Load.Health == server.HealthReady && n.Load.Live < n.Load.Slots &&
			(thief == nil || n.Load.Live < thief.Load.Live) {
			thief = n
		}
	}
	if donor == nil || thief == nil || donor == thief {
		c.mu.Unlock()
		return
	}
	if !diskDegraded(donor) &&
		thief.Load.Live >= donor.Load.Queued+donor.Load.Live-1 {
		// No imbalance worth moving a checkpoint over the network for.
		// (Unless the donor's disk is down — then its queued jobs run
		// nowhere at all, and any thief with a free slot beats that.)
		c.mu.Unlock()
		return
	}
	donorName, donorAddr, thiefName := donor.Name, donor.Addr, thief.Name
	c.mu.Unlock()

	rec, _, err := c.stealFrom(donorAddr, "")
	if err != nil {
		c.log.Log("fleet_steal_error", "from", donorName, "err", err.Error())
		return
	}
	if rec == nil {
		return // queue emptied itself between heartbeat and steal
	}
	if c.deliver(rec, donorName, []string{thiefName}) == thiefName {
		c.obs.steals.Inc()
		c.log.Log("fleet_steal", "job", rec.ID, "from", donorName, "to", thiefName)
	}
}

// deliver hands a record stolen from donor to the first of targets that
// adopts it. When none does, the record goes back to the donor, and if
// even that fails it waits on the pending list — it is journaled as
// handed_off on the donor, so nothing is lost either way. It returns
// the node that took the record, "" when it went pending.
func (c *Coordinator) deliver(rec *server.Job, donor string, targets []string) string {
	name, err := c.offer(rec, append(targets, donor))
	if err == nil {
		c.moveJob(rec.ID, name, rec.Deadline, time.Time{})
		return name
	}
	c.mu.Lock()
	c.parkLocked(rec, name, err)
	c.mu.Unlock()
	return ""
}

// moveJob records that node now holds job id, creating the job's entry
// on first sight, and counts the job among those delivered to node
// since its last heartbeat. Placement, steal, move and pending delivery
// all record here; placement alone passes the time it placed the job,
// which starts the move clock.
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

// candidates returns the scheduling-eligible nodes, best first, in
// three tiers: healthy ready nodes, then slow ready nodes, then
// saturated nodes (they shed load themselves, but they are alive and
// their refusal carries a Retry-After worth propagating). A slow node
// is demoted, not excluded: slow capacity beats no capacity. Draining,
// fenced and disk-degraded nodes never appear — the last would only
// answer 507, so admissions route around it until its self-probe
// reports the disk healed and its heartbeat turns ready again.
// Within a tier, fewer jobs in flight come first (join the shortest
// queue), and the node name breaks ties: two coordinators looking at
// the same fleet walk candidates identically.
func (c *Coordinator) candidates() []*node {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ready, slow, saturated []*node
	for _, n := range c.nodes {
		if !n.alive() {
			continue
		}
		switch n.Load.Health {
		case server.HealthReady:
			if n.Slow {
				slow = append(slow, n)
			} else {
				ready = append(ready, n)
			}
		case server.HealthSaturated:
			saturated = append(saturated, n)
		}
	}
	byLoad := func(list []*node) {
		sort.Slice(list, func(a, b int) bool {
			if fa, fb := list[a].inFlight(), list[b].inFlight(); fa != fb {
				return fa < fb
			}
			return list[a].Name < list[b].Name
		})
	}
	byLoad(ready)
	byLoad(slow)
	byLoad(saturated)
	return append(append(ready, slow...), saturated...)
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
