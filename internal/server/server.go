package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/board"
	"repro/internal/boardio"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/simfs"
	"repro/internal/stringer"
)

// Load-shedding and lifecycle sentinels; the HTTP layer maps them to
// status codes (429, 503).
var (
	// ErrQueueFull: admission would exceed QueueDepth. The client should
	// back off and retry.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining: the daemon is shutting down and admits nothing.
	ErrDraining = errors.New("server: draining")
	// ErrInternal marks daemon-side admission failures (journal I/O),
	// as opposed to bad job specs.
	ErrInternal = errors.New("server: internal error")
	// ErrDuplicate: Adopt was offered a job ID this node already owns in
	// a live or terminal state (not handed_off, which re-adopts cleanly).
	ErrDuplicate = errors.New("server: job already present")
	// ErrDeadline: the job's remaining deadline budget cannot cover its
	// estimated routing cost. The HTTP layer maps it to 504 Gateway
	// Timeout + Retry-After — a fast-fail at admission beats burning a
	// worker on an answer the client will have stopped waiting for.
	ErrDeadline = errors.New("server: deadline cannot be met")
)

// MaxDeadlineMs bounds deadline_ms, enforced with a 400 (request
// hardening): it must be in (0, MaxDeadlineMs]. The bound is generous —
// the point is rejecting nonsense (negative, zero, or absurd values from
// buggy or hostile clients) before it reaches the queue, not
// constraining real use.
const MaxDeadlineMs = int64(24 * 60 * 60 * 1000) // 24h

// Config parameterizes a Server. The zero value of every field gets a
// sensible default from New; only JournalDir is required.
type Config struct {
	// NodeName, when set, namespaces this node's job IDs
	// ("job-<name>-000042" instead of "job-000042") so IDs stay unique
	// across a fleet and a handed-off job keeps its identity on the new
	// owner. Standalone daemons leave it empty and keep the old format.
	NodeName string
	// Workers is the routing worker pool size (default 4).
	Workers int
	// QueueDepth bounds the live jobs — queued, running or awaiting
	// retry — the daemon will hold (default 16). Beyond it, Submit sheds
	// load with ErrQueueFull. Jobs recovered from the journal at startup
	// are admitted on top of this bound: they were accepted before the
	// crash, and re-shedding them would turn a restart into data loss.
	QueueDepth int
	// JournalDir is the job journal directory (required; created if
	// missing).
	JournalDir string
	// MaxAttempts bounds executions per job, across daemon restarts
	// (default 3). Each transient failure — conflict, injected fault,
	// panic, checkpoint-write error — costs one attempt.
	MaxAttempts int
	// RetryBase and RetryMax shape the retry backoff: attempt n waits
	// roughly RetryBase·2ⁿ⁻¹, jittered to [d/2, d), capped at RetryMax
	// (defaults 10ms, 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// RetrySeed seeds the jitter RNG, so tests replay schedules. Zero
	// means "derive from entropy": every daemon start jitters its retry
	// schedule differently, so a restarted fleet whose jobs all failed
	// together does not retry in lockstep. Tests pin explicit seeds.
	RetrySeed int64
	// MaxTimeBudget caps the per-job routing time budget; a job asking
	// for more (or for none) gets exactly this much. Zero leaves job
	// budgets alone.
	MaxTimeBudget time.Duration
	// CheckpointEvery is the checkpoint cadence for jobs that don't set
	// their own (default 8 routing attempts).
	CheckpointEvery int
	// BoardHook, when set, is applied to every job's board after restore
	// and before routing — the seam the fault-injection tests use to
	// install interposers (veto schedules, crashers, blockers).
	BoardHook func(*board.Board)
	// OnCrash is invoked when a worker recovers a faultinject.Crash —
	// the simulated-SIGKILL panic. grrd installs os.Exit so the process
	// dies exactly as a real kill would; when nil the crash is treated
	// as one more transient failure and retried.
	OnCrash func(faultinject.Crash)
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
	// Log, when set, receives structured job-lifecycle lines (submit →
	// running → retrying → done/failed) stamped with job IDs. Nil is
	// fine: the obs.Logger is nil-safe.
	Log *obs.Logger
	// Metrics, when set, is the registry the daemon publishes into:
	// queue depth, slots in use, admission rejects, retries by cause,
	// job latency histograms, journal write/replay counts — and, via
	// core.Options.Metrics, the router's own search and phase-timing
	// series. When nil the server still counts into a private registry
	// (the code never branches), it just isn't scraped.
	Metrics *obs.Registry
	// DrainBudget advertises how long a graceful drain may take; it
	// derives the Retry-After header on 503 draining responses
	// (default 30s). grrd wires its -drain-grace flag here.
	DrainBudget time.Duration
	// DiskProbeEvery is how often a disk-degraded daemon re-probes its
	// journal directory with a full atomic write to see whether the
	// disk healed (default 5s; negative disables the probe, leaving the
	// posture latched until restart). It also derives the Retry-After
	// header on 507 disk-degraded responses.
	DiskProbeEvery time.Duration
	// MaxBodyBytes caps the HTTP request body of job submissions,
	// single and batch (default 16 MiB). Oversize requests are refused
	// with 413 before any parsing happens.
	MaxBodyBytes int64
	// ConnCost, when positive, fixes the per-connection routing-cost
	// estimate the deadline admission check uses (remaining budget <
	// conns × estimate → ErrDeadline). Zero (the default) learns the
	// estimate from this node's own completed attempts — an EWMA of
	// attempt seconds per connection — and refuses nothing until at
	// least three attempts have trained it.
	ConnCost time.Duration
	// ClaimCommit, when set, is the fleet's hedged-execution commit
	// gate: before journaling a terminal state for a job whose record
	// carries a hedge token, the node asks the coordinator whether this
	// copy won the first-durable-result race. false means a peer's copy
	// won — the local copy flips to handed_off instead of committing.
	// Nil (standalone, or a fleet without hedging) commits immediately,
	// byte-identically to the pre-hedging paths.
	ClaimCommit func(jobID string, token uint64) (win bool, err error)
}

func (c *Config) setDefaults() error {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.RetrySeed == 0 {
		c.RetrySeed = entropySeed()
	}
	if c.DrainBudget <= 0 {
		c.DrainBudget = 30 * time.Second
	}
	if c.DiskProbeEvery == 0 {
		c.DiskProbeEvery = 5 * time.Second
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 8
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.JournalDir == "" {
		return errors.New("server: Config.JournalDir is required")
	}
	return nil
}

// Server is the grrd job daemon: a bounded queue feeding a bounded
// worker pool, with every job mirrored to the on-disk journal.
type Server struct {
	cfg Config
	obs *serverObs
	log *obs.Logger

	// Retry-After values for the load-shedding responses, derived from
	// Config at startup (backoff base, drain budget, disk probe
	// cadence) instead of hardcoded.
	retryAfterFull  string
	retryAfterDrain string
	retryAfterDisk  string

	// diskDegraded latches true when a journal write fails with a disk
	// errno (see disk.go) and clears when the self-probe succeeds.
	diskDegraded atomic.Bool

	// epoch is the journal epoch this node owns; fenced flips true the
	// first time a journal write is refused because the epoch moved on
	// (the fleet coordinator handed this node's jobs to a peer). A
	// fenced node stops admitting and fails its in-flight work without
	// journaling — the authoritative records live elsewhere now.
	epoch  uint64
	fenced atomic.Bool

	// runningN counts attempts executing right now — the heartbeat
	// load report's "running" (the obs gauge tracks the same value for
	// scrapes; this one is readable).
	runningN atomic.Int64

	// parkedN counts disk-parked jobs. They report as queued in Load —
	// they are waiting work a peer could steal — but live outside the
	// queue channel, so the channel length alone undercounts them.
	parkedN atomic.Int64

	// Fail-slow signals (DESIGN §14). queueWait and diskLat feed the
	// heartbeat Load report (milliseconds) so the coordinator can spot
	// a node whose jobs wait too long or whose journal writes drag;
	// connCost learns attempt-seconds-per-connection for the deadline
	// admission estimate.
	queueWait *obs.EWMA
	diskLat   *obs.EWMA
	connCost  *obs.EWMA

	mu   sync.Mutex
	jobs map[string]*Job
	seq  int
	rng  *rand.Rand
	// retained caches completed runs' routers for incremental edits
	// (edit.go); retainedOrder is its FIFO eviction order.
	retained      map[string]*retainedRun
	retainedOrder []string
	// adopting marks job IDs whose adopted record is mid-write, so a
	// second concurrent handoff of the same ID is refused instead of
	// racing the first one's journal write.
	adopting map[string]bool

	// queue carries runnable jobs to workers; slots is the admission
	// semaphore. Every live (non-terminal) job holds one slot, acquired
	// at Submit (or journal recovery) and released at its terminal
	// transition — so both channels' shared capacity bounds live jobs,
	// and sends to queue can never block.
	queue chan *Job
	slots chan struct{}

	draining    atomic.Bool
	drainCtx    context.Context
	drainCancel context.CancelFunc
	wg          sync.WaitGroup
}

// New builds a Server: recovers the journal in cfg.JournalDir, requeues
// every non-terminal job it finds, and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if err := ensureDir(cfg.JournalDir); err != nil {
		return nil, err
	}
	// Adopt the journal's epoch, or stamp a fresh directory with epoch 1.
	// A fenced directory is refused outright: its jobs were handed to
	// peers, and running them again here would duplicate work the fleet
	// already owns elsewhere — a fenced node restarts with a fresh dir.
	epoch, fenced, err := ReadEpoch(cfg.JournalDir)
	if err != nil {
		return nil, err
	}
	if fenced {
		return nil, fmt.Errorf("%w: %s was fenced at epoch %d; start with a fresh journal directory",
			ErrFenced, cfg.JournalDir, epoch)
	}
	if epoch == 0 {
		epoch = 1
		if err := WriteEpoch(cfg.JournalDir, epoch, false); err != nil {
			return nil, err
		}
	}
	o := newServerObs(cfg.Metrics)
	// A crashed probe can leave its scratch file behind; it is never a
	// job record, so sweep it with the stale temp files.
	simfs.Current().Remove(filepath.Join(cfg.JournalDir, diskProbeFile))
	recovered, scan, err := loadJournal(cfg.JournalDir, func(path string, err error) {
		o.journalCorrupt.Inc()
		cfg.Logf("grrd: quarantining corrupt job record %s: %v", path, err)
	})
	if err != nil {
		return nil, err
	}
	o.diskTmpCleaned.Add(int64(scan.tmpCleaned))
	o.journalQuarantined.Add(int64(scan.quarantined))
	if scan.tmpCleaned > 0 || scan.quarantined > 0 {
		cfg.Logf("grrd: journal scan: %d stale tmp removed, %d corrupt records quarantined",
			scan.tmpCleaned, scan.quarantined)
	}
	live := 0
	for _, j := range recovered {
		if j.State.Live() {
			live++
		}
	}

	depth := cfg.QueueDepth + live
	s := &Server{
		cfg:             cfg,
		obs:             o,
		log:             cfg.Log,
		epoch:           epoch,
		retryAfterFull:  retryAfterSeconds(cfg.RetryBase),
		retryAfterDrain: retryAfterSeconds(cfg.DrainBudget),
		retryAfterDisk:  retryAfterSeconds(cfg.DiskProbeEvery),
		jobs:            make(map[string]*Job),
		adopting:        make(map[string]bool),
		retained:        make(map[string]*retainedRun),
		rng:             rand.New(rand.NewSource(cfg.RetrySeed)),
		queue:           make(chan *Job, depth),
		slots:           make(chan struct{}, depth),
		queueWait:       obs.NewEWMA(0.3),
		diskLat:         obs.NewEWMA(0.3),
		connCost:        obs.NewEWMA(0.2),
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())

	for _, j := range recovered {
		s.jobs[j.ID] = j
		o.journalReplayed.Inc()
		if n := jobSeq(j.ID); n >= s.seq {
			s.seq = n + 1
		}
		if !j.State.Live() {
			// Terminal records republish as history; handed_off records
			// stay visible but are never requeued — a peer owns them.
			continue
		}
		// The job was admitted before the crash; its slot is part of the
		// extended capacity, so this can never block.
		s.slots <- struct{}{}
		prev := j.State
		j.State = StateQueued
		j.created = time.Now()
		j.enqueuedAt = j.created
		// A recovered record carrying a hedge token is one copy of a
		// hedged job: it must still win the commit claim before settling.
		j.claimRequired = j.HedgeToken != 0
		if err := s.saveJob(j); err != nil {
			return nil, err
		}
		o.recovered.Inc()
		cfg.Logf("grrd: recovered %s (%s, attempt %d, %d/%d routed)",
			j.ID, prev, j.Attempt, j.snap.Check.Metrics.Routed, len(j.snap.Conns))
		s.log.Log("job_recovered", "job", j.ID, "prev", string(prev),
			"attempt", j.Attempt, "routed", j.snap.Check.Metrics.Routed)
		s.queue <- j
		s.channelGauges()
	}

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.DiskProbeEvery > 0 {
		s.wg.Add(1)
		go s.diskProbeLoop()
	}
	return s, nil
}

// jobSeq extracts the sequence number from a job ID — "job-000042" or
// the fleet form "job-<node>-000042" (the node name may itself contain
// dashes; the sequence is always the final segment).
func jobSeq(id string) int {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return -1
	}
	if i := strings.LastIndexByte(rest, '-'); i >= 0 {
		rest = rest[i+1:]
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// newID mints the next job ID. Callers hold the server mutex.
func (s *Server) newID() string {
	n := s.seq
	s.seq++
	if s.cfg.NodeName != "" {
		return fmt.Sprintf("job-%s-%06d", s.cfg.NodeName, n)
	}
	return fmt.Sprintf("job-%06d", n)
}

// Submit admits a job: parse and validate the spec, journal it, queue
// it. It returns the queued job's status, or ErrQueueFull / ErrDraining
// when admission is refused.
func (s *Server) Submit(spec JobSpec) (Status, error) {
	if s.draining.Load() {
		s.obs.rejectDrain.Inc()
		return Status{}, ErrDraining
	}
	if s.fenced.Load() {
		return Status{}, ErrFenced
	}
	if s.diskDegraded.Load() {
		// Admitting a job means promising it a durable record; a degraded
		// disk cannot make that promise.
		s.obs.rejectDisk.Inc()
		return Status{}, ErrDiskDegraded
	}
	budget, err := validateDeadline(spec)
	if err != nil {
		s.obs.rejectSpec.Inc()
		return Status{}, err
	}
	snap, err := buildSnapshot(spec, s.cfg)
	if err != nil {
		s.obs.rejectSpec.Inc()
		return Status{}, err
	}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
		if err := s.admitDeadline(deadline, len(snap.Conns)); err != nil {
			s.obs.deadlineRefused.Inc()
			return Status{}, err
		}
	}

	select {
	case s.slots <- struct{}{}:
	default:
		s.obs.rejectFull.Inc()
		return Status{}, ErrQueueFull
	}

	s.mu.Lock()
	id := s.newID()
	s.mu.Unlock()
	now := time.Now()
	j := &Job{ID: id, State: StateQueued, snap: snap, created: now, Deadline: deadline, enqueuedAt: now}
	rec := *j

	// Journal BEFORE publishing the job in s.jobs: the instant a queued
	// job is visible there, Steal may flip it to handed_off and write its
	// own record — publishing first would race two writers on the same
	// journal file and let Steal release a slot the failed admission path
	// would release again.
	if err := s.saveJob(&rec); err != nil {
		<-s.slots
		s.obs.rejectJournal.Inc()
		s.channelGauges()
		return Status{}, fmt.Errorf("%w: journaling job: %v", ErrInternal, err)
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	s.obs.submitted.Inc()
	s.queue <- j
	s.channelGauges()
	s.log.Log("job_submitted", "job", id, "conns", len(snap.Conns))
	return rec.status(), nil
}

// buildSnapshot turns a JobSpec into the zero-progress snapshot the job
// is admitted (and journaled) with. A spec error here is permanent: the
// client sent a bad job.
func buildSnapshot(spec JobSpec, cfg Config) (*boardio.Snapshot, error) {
	d, err := boardio.ReadDesign(strings.NewReader(spec.Design))
	if err != nil {
		return nil, fmt.Errorf("server: design: %w", err)
	}
	var conns []core.Connection
	if spec.Conns != "" {
		conns, err = boardio.ReadConnections(strings.NewReader(spec.Conns))
		if err != nil {
			return nil, fmt.Errorf("server: conns: %w", err)
		}
	} else {
		strung, err := stringer.String(d, stringer.Options{})
		if err != nil {
			return nil, fmt.Errorf("server: stringing nets: %w", err)
		}
		conns = strung.Conns
	}

	opts := core.DefaultOptions()
	for name, v := range spec.Options {
		if err := boardio.ApplyOption(&opts, name, v); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = cfg.CheckpointEvery
	}
	if cfg.MaxTimeBudget > 0 && (opts.TimeBudget <= 0 || opts.TimeBudget > cfg.MaxTimeBudget) {
		opts.TimeBudget = cfg.MaxTimeBudget
	}
	return &boardio.Snapshot{
		Design: d,
		Conns:  conns,
		Opts:   opts,
		Check:  freshCheckpoint(len(conns)),
	}, nil
}

// Status reports one job.
func (s *Server) Status(id string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, false
	}
	return j.status(), true
}

// Jobs lists every known job, sorted by ID.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.status())
	}
	sortStatuses(out)
	return out
}

// Ready reports whether the daemon accepts jobs (false once draining).
func (s *Server) Ready() bool { return !s.draining.Load() }

// Saturated reports whether every admission slot is held by a live job:
// the next Submit would shed load with ErrQueueFull. A saturated node is
// healthy — it is the fleet's steal-from candidate, not a drain-only one.
func (s *Server) Saturated() bool { return len(s.slots) == cap(s.slots) }

// Fenced reports whether a journal write has been refused because the
// epoch moved on — this node's jobs were handed to peers.
func (s *Server) Fenced() bool { return s.fenced.Load() }

// Epoch returns the journal epoch this node adopted at startup.
func (s *Server) Epoch() uint64 { return s.epoch }

// Health condenses the daemon's admission posture into the strings the
// /readyz body and the fleet heartbeat carry. The fleet scheduler keys
// off them: "saturated" nodes are steal-from candidates that will free
// up, "draining" and "fenced" nodes only ever shrink.
const (
	HealthReady     = "ready"
	HealthSaturated = "saturated"
	HealthDraining  = "draining"
	HealthFenced    = "fenced"
	// HealthDiskDegraded: the journal disk refuses writes; the node
	// holds its jobs (parked at their last durable checkpoint) and
	// self-probes, but admits nothing. Unlike draining/fenced it is
	// expected to return — and unlike saturated it is a steal-from
	// candidate whose queue should be moved, not waited on.
	HealthDiskDegraded = "disk_degraded"
)

// Health reports the daemon's current admission posture. Fenced and
// draining outrank disk_degraded: a node that is leaving is leaving,
// whatever its disk thinks.
func (s *Server) Health() string {
	switch {
	case s.fenced.Load():
		return HealthFenced
	case s.draining.Load():
		return HealthDraining
	case s.diskDegraded.Load():
		return HealthDiskDegraded
	case s.Saturated():
		return HealthSaturated
	default:
		return HealthReady
	}
}

// Load is the occupancy report a fleet heartbeat carries: how much work
// this node holds and whether it can take more.
type Load struct {
	Node    string `json:"node,omitempty"` // filled in by the fleet agent
	Epoch   uint64 `json:"epoch,omitempty"`
	Health  string `json:"health"`
	Live    int    `json:"live"`     // jobs holding admission slots
	Queued  int    `json:"queued"`   // jobs waiting for a worker
	Running int    `json:"running"`  // attempts executing right now
	Slots   int    `json:"slots"`    // total admission capacity
	Workers int    `json:"workers"`  // routing worker pool size
	// Disk is "" while the journal disk is healthy and "degraded" once
	// the disk posture latches — a dedicated field (not just Health)
	// because Health is a priority collapse: a draining node's disk
	// state would otherwise be invisible to the coordinator.
	Disk string `json:"disk,omitempty"`
	// QueueWaitMs and DiskWriteMs are the node's fail-slow signals
	// (DESIGN §14): EWMAs of how long jobs sit queued before a worker
	// picks them up, and of journal-write latency. The coordinator
	// compares them across the fleet to latch a slow posture — a node
	// can be "ready" by every health check above and still be the one
	// dragging the tail. Omitted until there is at least one sample.
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	DiskWriteMs float64 `json:"disk_write_ms,omitempty"`
}

// Load snapshots the node's occupancy for heartbeats and scheduling.
func (s *Server) Load() Load {
	l := Load{
		Epoch:   s.epoch,
		Health:  s.Health(),
		Live:    len(s.slots),
		Queued:  len(s.queue) + int(s.parkedN.Load()),
		Running: int(s.runningN.Load()),
		Slots:   cap(s.slots),
		Workers: s.cfg.Workers,
	}
	if s.diskDegraded.Load() {
		l.Disk = "degraded"
	}
	if s.queueWait.Samples() > 0 {
		l.QueueWaitMs = s.queueWait.Value()
	}
	if s.diskLat.Samples() > 0 {
		l.DiskWriteMs = s.diskLat.Value()
	}
	return l
}

// Steal relinquishes one waiting job to the fleet: the newest queued
// (or disk-parked — work this node cannot run until its disk heals)
// job flips to handed_off (journaled), its admission slot is released,
// and a detached copy of its record — checkpoint included — is
// returned for delivery to a peer. Returns nil when nothing is
// stealable (only running, retrying or terminal jobs here). The stale
// queue-channel entry is skipped by the worker that eventually
// receives it.
func (s *Server) Steal() (*Job, error) {
	s.mu.Lock()
	var victim *Job
	stealable := func(j *Job) bool {
		return j.State == StateQueued || (j.parked && j.State == StateInterrupted)
	}
	for _, j := range s.jobs {
		if !stealable(j) {
			continue
		}
		if victim == nil || j.ID > victim.ID {
			victim = j // LIFO: steal the freshest work, classic work-stealing order
		}
	}
	if victim == nil {
		s.mu.Unlock()
		return nil, nil
	}
	prevState, prevParked := victim.State, victim.parked
	victim.State = StateHandedOff
	victim.parked = false
	rec := *victim
	s.mu.Unlock()

	if err := s.saveJob(&rec); err != nil {
		if errors.Is(err, ErrFenced) || !s.diskDegraded.Load() {
			// Could not journal the handoff — the job stays ours, in the
			// state it was waiting in (a parked victim must go back to
			// parked: there is no queue-channel entry to run it from).
			s.mu.Lock()
			if victim.State == StateHandedOff {
				victim.State = prevState
				victim.parked = prevParked
			}
			s.mu.Unlock()
			return nil, fmt.Errorf("journaling steal of %s: %w", rec.ID, err)
		}
		// Disk-degraded donor: the handoff record cannot be written, but
		// reverting would trap the job on a node that cannot run it —
		// moving queued work OFF a degraded disk is the whole point of
		// the coordinator stealing here. Hand it off anyway and re-write
		// the record when the disk heals. The residual hazard is narrow:
		// a crash+restart before healing re-runs the job from its last
		// durable record, duplicating deterministic work on this node —
		// never producing a different result.
		s.mu.Lock()
		victim.unjournaled = true
		s.mu.Unlock()
		s.cfg.Logf("grrd: handing off %s without a journal record (disk degraded): %v", rec.ID, err)
		s.log.Log("job_stolen_unjournaled", "job", rec.ID, "err", err.Error())
	}
	if prevParked {
		s.parkedN.Add(-1)
	}
	<-s.slots
	s.channelGauges()
	s.obs.stolen.Inc()
	s.log.Log("job_stolen", "job", rec.ID, "attempt", rec.Attempt,
		"routed", rec.snap.Check.Metrics.Routed)
	return &rec, nil
}

// Adopt admits a job handed over by the fleet — a steal from a loaded
// peer, or the recovered record of a fenced node — preserving its ID,
// attempt count and checkpoint, so routing resumes exactly where the
// previous owner durably left off. An ID this node already knows is
// re-adopted only from handed_off (a hand-back after a failed onward
// delivery); any other state is ErrDuplicate.
func (s *Server) Adopt(rec *Job) (Status, error) {
	if s.draining.Load() {
		s.obs.rejectDrain.Inc()
		return Status{}, ErrDraining
	}
	if s.fenced.Load() {
		return Status{}, ErrFenced
	}
	if s.diskDegraded.Load() {
		s.obs.rejectDisk.Inc()
		return Status{}, ErrDiskDegraded
	}
	if rec.ID == "" || rec.snap == nil {
		return Status{}, fmt.Errorf("server: adopt: record missing id or snapshot")
	}

	select {
	case s.slots <- struct{}{}:
	default:
		s.obs.rejectFull.Inc()
		return Status{}, ErrQueueFull
	}

	s.mu.Lock()
	j, exists := s.jobs[rec.ID]
	if exists && j.State != StateHandedOff {
		state := j.State
		s.mu.Unlock()
		<-s.slots
		return Status{}, fmt.Errorf("%w: %s is %s here", ErrDuplicate, rec.ID, state)
	}
	if s.adopting[rec.ID] {
		s.mu.Unlock()
		<-s.slots
		return Status{}, fmt.Errorf("%w: %s adoption already in flight", ErrDuplicate, rec.ID)
	}
	s.adopting[rec.ID] = true
	if !exists {
		j = &Job{ID: rec.ID}
		s.jobs[rec.ID] = j
	}
	// The job stays in handed_off — in transfer, not stealable, skipped
	// by workers — until its adopted record is durable; flipping to
	// queued first would let Steal race this write on the same file.
	j.State = StateHandedOff
	j.Attempt = rec.Attempt
	j.Err = rec.Err
	j.Aborted = rec.Aborted
	j.snap = rec.snap
	j.created = time.Now()
	j.enqueuedAt = j.created
	// The deadline and hedge token travel with the record: the budget is
	// end-to-end and a hedge copy must claim its commit wherever it runs.
	j.Deadline = rec.Deadline
	j.HedgeToken = rec.HedgeToken
	j.claimRequired = rec.HedgeToken != 0
	j.superseded = false
	j.committing = false
	if n := jobSeq(rec.ID); n >= s.seq {
		s.seq = n + 1 // insurance against ID reuse if names ever collide
	}
	out := *j
	out.State = StateQueued
	s.mu.Unlock()

	if err := s.saveJob(&out); err != nil {
		s.mu.Lock()
		delete(s.adopting, rec.ID)
		if !exists {
			delete(s.jobs, rec.ID)
		}
		s.mu.Unlock()
		<-s.slots
		s.channelGauges()
		return Status{}, fmt.Errorf("%w: journaling adopted job: %v", ErrInternal, err)
	}
	s.mu.Lock()
	delete(s.adopting, rec.ID)
	j.State = StateQueued
	s.mu.Unlock()
	s.obs.adopted.Inc()
	s.queue <- j
	s.channelGauges()
	s.log.Log("job_adopted", "job", out.ID, "attempt", out.Attempt,
		"routed", out.snap.Check.Metrics.Routed)
	return out.status(), nil
}

// Drain shuts the daemon down gracefully: admission stops (Ready flips
// false), pending retries and in-flight jobs are checkpointed to the
// journal as interrupted, and the worker pool exits. Running jobs stop
// at their next connection boundary — the router flushes a final
// checkpoint through its sink on the way out, so no committed work is
// lost. ctx bounds the wait; on ctx expiry workers may still be
// running, but the journal is consistent (running jobs simply recover
// as of their last checkpoint).
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return errors.New("server: already draining")
	}
	s.log.Log("drain_begin")

	// Disarm pending retries: a timer we stop before it fires will never
	// enqueue, so its job parks as interrupted.
	s.mu.Lock()
	var park []*Job
	for _, j := range s.jobs {
		if j.State == StateRetrying && j.stopRetry != nil && j.stopRetry() {
			j.stopRetry = nil
			j.State = StateInterrupted
			park = append(park, j)
		}
	}
	recs := make([]Job, len(park))
	for i, j := range park {
		recs[i] = *j
	}
	s.mu.Unlock()
	for i := range recs {
		if err := s.saveJob(&recs[i]); err != nil {
			s.cfg.Logf("grrd: journaling parked %s: %v", recs[i].ID, err)
		}
		s.obs.interrupted.Inc()
		s.log.Log("job_interrupted", "job", recs[i].ID, "parked", true)
	}

	// Cancel the run context: workers stop picking up jobs, and running
	// routers abort at their next connection boundary.
	s.drainCancel()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		s.log.Log("drain_end")
		return nil
	case <-ctx.Done():
		s.log.Log("drain_end", "err", ctx.Err().Error())
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		// Bias shutdown over work: a ready drainCtx always wins, even if
		// the queue is also ready.
		select {
		case <-s.drainCtx.Done():
			return
		default:
		}
		select {
		case <-s.drainCtx.Done():
			return
		case j := <-s.queue:
			s.channelGauges()
			s.runJob(j)
		}
	}
}

// runJob executes one attempt of j and routes the outcome: done,
// interrupted (drain), retry, or failed.
func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	if j.State != StateQueued {
		// The queue entry went stale: the job was stolen by a peer (or
		// otherwise resolved) between enqueue and pickup. Its slot was
		// released by whoever changed the state; nothing to do here.
		s.mu.Unlock()
		return
	}
	j.State = StateRunning
	j.Attempt++
	j.stopRetry = nil
	j.committing = false // a fresh attempt begins; no terminal commit in flight
	attempt := j.Attempt
	var waited time.Duration
	if !j.enqueuedAt.IsZero() {
		waited = time.Since(j.enqueuedAt)
	}
	rec := *j
	s.mu.Unlock()
	s.obs.attempts.Inc()
	s.obs.running.Add(1)
	s.runningN.Add(1)
	defer func() {
		s.obs.running.Add(-1)
		s.runningN.Add(-1)
	}()
	if waited > 0 {
		s.queueWait.Observe(waited.Seconds() * 1000)
		s.obs.queueWaitSeconds.Observe(waited.Seconds())
	}
	s.log.Log("job_running", "job", j.ID, "attempt", attempt)
	if !rec.Deadline.IsZero() && time.Now().After(rec.Deadline) {
		// The deadline expired while the job sat queued: fail fast
		// instead of burning a worker on an answer nobody is waiting for.
		s.obs.deadlineExceeded.Inc()
		s.settle(j, attempt, outcome{permanent: fmt.Errorf(
			"deadline exceeded %v before attempt %d started",
			time.Since(rec.Deadline).Round(time.Millisecond), attempt)})
		return
	}
	if err := s.saveJob(&rec); err != nil {
		// Can't record that the job is running — journal trouble. Treat
		// like any transient fault.
		s.settle(j, attempt, outcome{transient: err, cause: causeJournal})
		return
	}

	t0 := time.Now()
	out := s.execute(j)
	dur := time.Since(t0)
	s.obs.attemptSeconds.Observe(dur.Seconds())
	if out.res != nil && out.res.Metrics.Connections > 0 {
		// Train the deadline-admission estimate on completed attempts:
		// seconds of routing per connection, smoothed.
		s.connCost.Observe(dur.Seconds() / float64(out.res.Metrics.Connections))
	}
	s.settle(j, attempt, out)
}

// outcome is the classified result of one execution attempt. Exactly
// one field is meaningful.
type outcome struct {
	res         *core.Result // finished (possibly incomplete) run
	fingerprint uint64
	auditErr    error
	// retain carries the run's router to the retention cache when the
	// job routed with recordregions; incAdopted/incRerouted are the
	// replay stats of an incremental edit attempt (both zero otherwise).
	retain      *retainedRun
	incAdopted  int
	incRerouted int

	interrupted *core.Result // drain abort; checkpoint already flushed
	transient   error        // retryable failure
	permanent   error        // non-retryable failure

	// cause tags a transient failure for grr_jobs_retried_total (one of
	// the cause* constants in metrics.go).
	cause string
}

// execute runs one routing attempt with panic isolation. A panic —
// from the router, an interposer, or injected faults — is contained to
// this job and classified transient; a faultinject.Crash additionally
// triggers the OnCrash hook (grrd: die like a real SIGKILL).
func (s *Server) execute(j *Job) (out outcome) {
	defer func() {
		if p := recover(); p != nil {
			if c, ok := p.(faultinject.Crash); ok && s.cfg.OnCrash != nil {
				s.cfg.OnCrash(c)
			}
			out = outcome{transient: fmt.Errorf("panic: %v", p), cause: causePanic}
		}
	}()

	s.mu.Lock()
	snap := j.snap
	deadline := j.Deadline
	s.mu.Unlock()

	// Per-attempt context: the drain context, narrowed by the job's
	// deadline when it has one, and cancellable by Supersede when a
	// hedge peer's result wins the commit race. core.RouteContext merges
	// the context deadline into the abort machinery — sooner wins.
	var ctx context.Context
	var cancel context.CancelFunc
	if deadline.IsZero() {
		ctx, cancel = context.WithCancel(s.drainCtx)
	} else {
		ctx, cancel = context.WithDeadline(s.drainCtx, deadline)
	}
	defer cancel()
	s.mu.Lock()
	j.cancelRun = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		j.cancelRun = nil
		s.mu.Unlock()
	}()

	// Run from a shallow copy: the sink, cadence and registry are
	// runtime-only and must not leak into the journaled snapshot.
	run := *snap
	run.Opts.Metrics = s.obs.reg
	run.Opts.CheckpointSink = func(cp *core.Checkpoint) error {
		next := *snap
		next.Check = cp
		s.mu.Lock()
		j.snap = &next
		rec := *j
		s.mu.Unlock()
		// Through saveJob, not saveJobRecord directly: mid-run checkpoints
		// are journal writes like any other — counted, and refused with
		// ErrFenced once the epoch moves on, which is what stops a zombie
		// from checkpointing over a job a peer now owns.
		return s.saveJob(&rec)
	}

	if !deadline.IsZero() {
		// The last hop of deadline propagation: the remaining end-to-end
		// budget clamps the router's own time budget (before Restore hands
		// the options to the router), so the abort fires at the deadline
		// even if the client asked for more routing time.
		run.Opts.ClampTimeBudget(time.Until(deadline))
	}

	b, r, incremental := s.rerouteIncremental(&run, j)
	if !incremental {
		var err error
		b, r, err = run.Restore()
		if err != nil {
			// The journaled checkpoint does not fit its own design: nothing a
			// retry can fix.
			return outcome{permanent: fmt.Errorf("restore: %w", err)}
		}
	}
	if s.cfg.BoardHook != nil {
		s.cfg.BoardHook(b)
	}

	res := r.RouteContext(ctx)
	switch res.Aborted {
	case core.AbortNone:
		out := outcome{res: &res, fingerprint: b.Fingerprint(), auditErr: b.Audit()}
		if incremental {
			out.incAdopted, out.incRerouted = r.IncStats()
		}
		if run.Opts.RecordRegions && out.auditErr == nil {
			out.retain = &retainedRun{router: r}
		}
		return out
	case core.AbortCancelled:
		return outcome{interrupted: &res}
	case core.AbortTime:
		// Within 10ms of the deadline the two time aborts are the same
		// event (the clamp above set the budget from the deadline); report
		// it as the deadline so clients and metrics see the right cause.
		if !deadline.IsZero() && time.Now().After(deadline.Add(-10*time.Millisecond)) {
			s.obs.deadlineExceeded.Inc()
			return outcome{permanent: fmt.Errorf("deadline exceeded after %d/%d routed", res.Metrics.Routed, res.Metrics.Connections)}
		}
		return outcome{permanent: fmt.Errorf("time budget exhausted after %d/%d routed", res.Metrics.Routed, res.Metrics.Connections)}
	case core.AbortCheckpoint:
		return outcome{transient: fmt.Errorf("checkpoint write: %w", res.Invariant), cause: causeCheckpoint}
	default: // AbortInvariant
		var ce *board.ConflictError
		if errors.As(res.Invariant, &ce) {
			return outcome{transient: fmt.Errorf("rollback conflict: %w", res.Invariant), cause: causeConflict}
		}
		return outcome{permanent: fmt.Errorf("invariant: %w", res.Invariant)}
	}
}

// settle applies an attempt's outcome to the job and journals the
// transition.
func (s *Server) settle(j *Job, attempt int, out outcome) {
	switch {
	case out.res != nil:
		if out.auditErr != nil {
			// A board that fails its final audit is corrupt state, not an
			// answer; retry from the last good checkpoint.
			s.retryOrFail(j, attempt, fmt.Errorf("final audit: %w", out.auditErr), causeAudit)
			return
		}
		// Hedge commit gate (DESIGN §14): a job carrying a hedge token
		// must win the coordinator's first-durable-result claim before
		// its done record may be journaled. Losing means a peer's copy
		// already committed — this copy steps aside as handed_off.
		win, err := s.claimTerminal(j)
		if err != nil {
			s.retryOrFail(j, attempt, fmt.Errorf("hedge commit claim: %w", err), causeHedge)
			return
		}
		if !win {
			s.supersedeFromRun(j, "lost the hedge commit race")
			return
		}
		m := out.res.Metrics
		s.mu.Lock()
		// Fold the final metrics into the snapshot so the journal record
		// carries them; the routes stay at the last checkpoint, which is
		// all a terminal record needs.
		next := *j.snap
		next.Check = checkpointWithMetrics(next.Check, m)
		j.snap = &next
		rec := *j
		s.mu.Unlock()
		rec.State = StateDone
		rec.Err = ""
		rec.Aborted = ""
		rec.Fingerprint = out.fingerprint
		rec.AuditOK = true
		rec.Metrics = &m
		// Journal the terminal record, then free capacity, then publish:
		// anyone who observes the job as done can rely on the journal
		// carrying its result and on its slot being available again.
		if err := s.saveJob(&rec); err != nil {
			s.cfg.Logf("grrd: journaling %s done: %v", j.ID, err)
		}
		<-s.slots
		s.channelGauges()
		s.mu.Lock()
		j.State = rec.State
		j.Err = rec.Err
		j.Aborted = rec.Aborted
		j.Fingerprint = rec.Fingerprint
		j.AuditOK = rec.AuditOK
		j.Metrics = rec.Metrics
		j.incAdopted, j.incRerouted = out.incAdopted, out.incRerouted
		created := j.created
		s.mu.Unlock()
		s.obs.done.Inc()
		s.observeJobDone(created)
		if out.retain != nil {
			// The run recorded regions: keep its router so POST
			// /jobs/{id}/edit can re-route edits incrementally.
			s.retain(j.ID, out.retain)
		}
		if out.incAdopted+out.incRerouted > 0 {
			s.log.Log("job_incremental", "job", j.ID,
				"adopted", out.incAdopted, "rerouted", out.incRerouted)
		}
		s.cfg.Logf("grrd: %s done: %v", j.ID, out.res)
		s.log.Log("job_done", "job", j.ID, "attempt", attempt,
			"routed", m.Routed, "conns", m.Connections,
			"fingerprint", fmt.Sprintf("%016x", rec.Fingerprint))

	case out.interrupted != nil:
		s.mu.Lock()
		superseded := j.superseded
		s.mu.Unlock()
		if superseded {
			// Not a drain: the coordinator cancelled this copy because a
			// hedge peer's result won. Step aside — the winner's journal
			// is the authoritative record.
			s.supersedeFromRun(j, "cancelled: a hedge peer's result won")
			return
		}
		s.mu.Lock()
		j.State = StateInterrupted
		j.Aborted = core.AbortCancelled.String()
		rec := *j
		s.mu.Unlock()
		if err := s.saveJob(&rec); err != nil {
			s.cfg.Logf("grrd: journaling %s interrupted: %v", j.ID, err)
		}
		s.obs.interrupted.Inc()
		s.cfg.Logf("grrd: %s interrupted by drain (%d/%d routed)",
			j.ID, out.interrupted.Metrics.Routed, out.interrupted.Metrics.Connections)
		s.log.Log("job_interrupted", "job", j.ID,
			"routed", out.interrupted.Metrics.Routed, "conns", out.interrupted.Metrics.Connections)
		// The slot is deliberately not released: the job is still live,
		// and the daemon is draining — nothing else will want it.

	case out.transient != nil:
		if errors.Is(out.transient, ErrFenced) {
			// Fenced mid-run (the checkpoint sink was refused): the job now
			// runs on a peer. Fail it locally without retry — every further
			// journal write would be refused too.
			s.fail(j, out.transient)
			return
		}
		if isDiskError(out.transient) {
			// The attempt died because the disk refused a journal or
			// checkpoint write (the failing saveJob already latched the
			// degraded posture). Retrying into the same wall would burn the
			// job's attempts on the machine's fault: park it until the
			// self-probe sees the disk heal.
			s.parkOnDisk(j, out.transient)
			return
		}
		s.retryOrFail(j, attempt, out.transient, out.cause)

	default:
		s.fail(j, out.permanent)
	}
}

// observeJobDone records end-to-end job latency (admission to terminal
// state). Jobs recovered from a journal restart count from recovery
// time — the daemon can only speak for its own lifetime.
func (s *Server) observeJobDone(created time.Time) {
	if !created.IsZero() {
		s.obs.jobSeconds.Observe(time.Since(created).Seconds())
	}
}

// retryOrFail schedules another attempt with jittered exponential
// backoff, or fails the job once attempts are exhausted. During a drain
// the job parks as interrupted instead — a restarted daemon retries it.
func (s *Server) retryOrFail(j *Job, attempt int, cause error, causeTag string) {
	if attempt >= s.cfg.MaxAttempts {
		s.fail(j, fmt.Errorf("attempt %d/%d: %w", attempt, s.cfg.MaxAttempts, cause))
		return
	}

	d := s.backoff(attempt)

	// Journal the retrying state BEFORE arming the timer: a short backoff
	// could otherwise fire requeue while this record is still being
	// written, racing two atomic writes on the same journal file.
	s.mu.Lock()
	j.State = StateRetrying
	j.Err = cause.Error()
	rec := *j
	s.mu.Unlock()
	if err := s.saveJob(&rec); err != nil {
		if errors.Is(err, ErrFenced) {
			// No point scheduling a retry this node may never journal: the
			// peer that adopted the job is the one retrying it now.
			s.fail(j, fmt.Errorf("%w (while retrying: %v)", err, cause))
			return
		}
		s.cfg.Logf("grrd: journaling retrying %s: %v", j.ID, err)
	}

	s.mu.Lock()
	if s.draining.Load() {
		// Drain won the race to this point; it saw no armed timer to
		// stop, so park the job here.
		j.State = StateInterrupted
		rec := *j
		s.mu.Unlock()
		if err := s.saveJob(&rec); err != nil {
			s.cfg.Logf("grrd: journaling parked %s: %v", j.ID, err)
		}
		s.obs.interrupted.Inc()
		s.log.Log("job_interrupted", "job", j.ID, "parked", true)
		return
	}
	t := time.AfterFunc(d, func() { s.requeue(j) })
	j.stopRetry = t.Stop
	s.mu.Unlock()
	s.obs.retry(causeTag)
	s.cfg.Logf("grrd: %s attempt %d failed (%v), retrying in %v", j.ID, attempt, cause, d)
	s.log.Log("job_retrying", "job", j.ID, "attempt", attempt,
		"cause", causeTag, "backoff", d.String(), "err", cause.Error())
}

// backoff computes the jittered delay before retry attempt+1:
// RetryBase·2^(attempt-1) capped at RetryMax, uniformly jittered down
// to half that, so synchronized failures don't retry in lockstep.
func (s *Server) backoff(attempt int) time.Duration {
	d := s.cfg.RetryBase << (attempt - 1)
	if d > s.cfg.RetryMax || d <= 0 {
		d = s.cfg.RetryMax
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	s.mu.Lock()
	jit := s.rng.Int63n(half + 1)
	s.mu.Unlock()
	return time.Duration(half + jit)
}

// requeue moves a retrying job back onto the queue when its backoff
// timer fires.
func (s *Server) requeue(j *Job) {
	s.mu.Lock()
	if j.State != StateRetrying {
		s.mu.Unlock()
		return
	}
	rec := *j
	rec.State = StateQueued
	s.mu.Unlock()
	// Journal the queued record while the job still reads as retrying:
	// a job only becomes stealable once it IS queued, so the write can
	// never race a Steal writing the same file.
	if err := s.saveJob(&rec); err != nil {
		s.cfg.Logf("grrd: journaling requeued %s: %v", j.ID, err)
	}
	s.mu.Lock()
	if j.State != StateRetrying {
		// A drain parked it while the record was being written.
		s.mu.Unlock()
		return
	}
	j.State = StateQueued
	j.stopRetry = nil
	j.enqueuedAt = time.Now()
	s.mu.Unlock()
	s.queue <- j
	s.channelGauges()
	s.log.Log("job_requeued", "job", j.ID, "attempt", rec.Attempt)
}

// fail marks j permanently failed: journal the terminal record, free
// the slot, then publish, so anyone who observes the job as failed can
// rely on the journal agreeing and on its capacity being available.
func (s *Server) fail(j *Job, cause error) {
	if win, err := s.claimTerminal(j); err != nil {
		// The claim arbiter is unreachable from the giving-up path.
		// Commit the failure locally anyway: a failed record can never
		// violate done-in-exactly-one — only done commits race — and if a
		// peer's copy later wins, its journal is authoritative (§14).
		s.cfg.Logf("grrd: %s failing without a commit claim: %v", j.ID, err)
	} else if !win {
		s.supersedeFromRun(j, "lost the hedge commit race")
		return
	}
	s.mu.Lock()
	rec := *j
	s.mu.Unlock()
	rec.State = StateFailed
	rec.Err = cause.Error()
	if err := s.saveJob(&rec); err != nil {
		s.cfg.Logf("grrd: journaling failed %s: %v", j.ID, err)
	}
	<-s.slots
	s.channelGauges()
	s.mu.Lock()
	j.State = rec.State
	j.Err = rec.Err
	created := j.created
	s.mu.Unlock()
	s.obs.failed.Inc()
	s.observeJobDone(created)
	s.cfg.Logf("grrd: %s failed: %v", j.ID, cause)
	s.log.Log("job_failed", "job", j.ID, "attempt", rec.Attempt, "err", cause.Error())
}

// checkpointWithMetrics returns cp with its metrics replaced.
func checkpointWithMetrics(cp *core.Checkpoint, m core.Metrics) *core.Checkpoint {
	next := *cp
	next.Metrics = m
	return &next
}

func ensureDir(dir string) error {
	return simfs.Current().MkdirAll(dir, 0o777)
}

func sortStatuses(sts []Status) {
	sort.Slice(sts, func(a, b int) bool { return sts[a].ID < sts[b].ID })
}
