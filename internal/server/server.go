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

// checkpointEvery is the checkpoint cadence, in routing attempts, of a
// job whose spec sets none.
const checkpointEvery = 8

// MaxDeadlineMs bounds deadline_ms, enforced with a 400 (request
// hardening): it must be in (0, MaxDeadlineMs]. The bound is generous —
// the point is rejecting nonsense (negative, zero, or absurd values from
// buggy or hostile clients) before it reaches the queue, not
// constraining real use.
const MaxDeadlineMs = int64(24 * 60 * 60 * 1000) // 24h

// MaxBodyBytes caps the HTTP request body of a job submission or edit,
// on grrd and on the fleet coordinator alike: a larger body is refused
// with 413 before any parsing happens.
const MaxBodyBytes = 16 << 20

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
	// BoardHook, when set, is applied to every job's board after restore
	// and before routing — the seam the fault-injection tests use to
	// install interposers (veto schedules, crashers, blockers).
	BoardHook func(*board.Board)
	// OnCrash is invoked when a worker recovers a faultinject.Crash —
	// the simulated-SIGKILL panic. grrd installs os.Exit so the process
	// dies exactly as a real kill would; when nil the crash is treated
	// as one more transient failure and retried.
	OnCrash func(faultinject.Crash)
	// Log, when set, receives the daemon's events: job-lifecycle lines
	// (submit → running → retrying → done/failed) stamped with job IDs,
	// and the journal, disk and drain events. Nil is fine: the
	// obs.Logger is nil-safe.
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
	// ClaimCommit is not read: a job has one live copy, so no commit
	// needs arbitration.
	//
	// Deprecated: the benchmark module still sets it; nothing else does.
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

	// backoff spaces a failed job's attempts (RetryBase, RetryMax,
	// RetrySeed).
	backoff *Backoff

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

	// lastAttempt (the latest attempt's wall time) and diskLat feed the
	// heartbeat Load report: the coordinator ranks nodes with equal jobs
	// in flight by lastAttempt (DESIGN §12.1). connCost learns
	// attempt-seconds-per-connection for the deadline admission
	// estimate.
	lastAttempt atomic.Int64
	diskLat     *obs.EWMA
	connCost    *obs.EWMA

	mu   sync.Mutex
	jobs map[string]*Job
	seq  int
	// idle wakes transitions waiting for a job's latch (Job.busy); work
	// wakes workers waiting for the run queue. Both use mu.
	idle *sync.Cond
	work *sync.Cond

	// queue is the run queue, in arrival order; parked holds the
	// disk-parked jobs, which Load reports as queued — waiting work a
	// peer could steal. live counts the admission slots held, of
	// capacity: every live job holds one (DESIGN §9.1). All guarded by
	// mu, all kept by transition.
	queue, parked  []*Job
	live, capacity int

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
		cfg.Log.Log("journal_record_corrupt", "path", path, "err", err.Error())
	})
	if err != nil {
		return nil, err
	}
	o.diskTmpCleaned.Add(int64(scan.tmpCleaned))
	o.journalQuarantined.Add(int64(scan.quarantined))
	if scan.tmpCleaned > 0 || scan.quarantined > 0 {
		cfg.Log.Log("journal_scan", "tmp_removed", scan.tmpCleaned, "quarantined", scan.quarantined)
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
		backoff:         NewBackoff(cfg.RetryBase, cfg.RetryMax, cfg.RetrySeed),
		capacity:        depth,
		diskLat:         obs.NewEWMA(0.3),
		connCost:        obs.NewEWMA(0.2),
	}
	s.idle = sync.NewCond(&s.mu)
	s.work = sync.NewCond(&s.mu)
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
		// extended capacity.
		now := time.Now()
		if _, err := s.transition(j, evRecover, func(j *Job) { j.created = now },
			"prev", string(j.State)); err != nil {
			return nil, err
		}
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
	if err := s.admissionClosed(); err != nil {
		return Status{}, err
	}
	budget, err := ValidateDeadline(spec.DeadlineMs)
	if err != nil {
		s.obs.rejectSpec.Inc()
		return Status{}, err
	}
	snap, err := buildSnapshot(spec, s.cfg)
	if err != nil {
		s.obs.rejectSpec.Inc()
		return Status{}, err
	}
	return s.admit(&Job{snap: snap}, budget, "conns", len(snap.Conns))
}

// admissionClosed refuses every kind of admission (submit, edit, adopt)
// while the node is draining, fenced or on a degraded disk — admitting
// a job means promising it a durable record.
func (s *Server) admissionClosed() error {
	switch {
	case s.draining.Load():
		s.obs.rejectDrain.Inc()
		return ErrDraining
	case s.fenced.Load():
		return ErrFenced
	case s.diskDegraded.Load():
		s.obs.rejectDisk.Inc()
		return ErrDiskDegraded
	}
	return nil
}

// admit queues a new job along evAdmit: the deadline check against the
// estimated cost, then the edge.
func (s *Server) admit(j *Job, budget time.Duration, kv ...any) (Status, error) {
	j.created = time.Now()
	if budget > 0 {
		j.Deadline = j.created.Add(budget)
		if err := s.admitDeadline(j.Deadline, len(j.snap.Conns)); err != nil {
			s.obs.deadlineRefused.Inc()
			return Status{}, err
		}
	}
	out, err := s.transition(j, evAdmit, nil, kv...)
	if err != nil {
		return Status{}, s.refused(err)
	}
	return out.status(), nil
}

// refused maps an admitting edge's failure onto the admission errors.
// A write the epoch fence refused stays ErrFenced: the node is leaving.
func (s *Server) refused(err error) error {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.obs.rejectFull.Inc()
		return err
	case errors.Is(err, ErrFenced):
		return err
	}
	s.obs.rejectJournal.Inc()
	return fmt.Errorf("%w: journaling job: %v", ErrInternal, err)
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
		opts.CheckpointEvery = checkpointEvery
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
func (s *Server) Saturated() bool { l := s.Load(); return l.Live == l.Slots }

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

// Health reports the daemon's current admission posture, as Load does.
func (s *Server) Health() string { return s.Load().Health }

// Load is the occupancy report a fleet heartbeat carries: how much work
// this node holds and whether it can take more.
type Load struct {
	Node    string `json:"node,omitempty"` // filled in by the fleet agent
	Epoch   uint64 `json:"epoch,omitempty"`
	Health  string `json:"health"`
	Live    int    `json:"live"`    // jobs holding admission slots
	Queued  int    `json:"queued"`  // jobs waiting for a worker
	Running int    `json:"running"` // attempts executing right now
	Slots   int    `json:"slots"`   // total admission capacity
	Workers int    `json:"workers"` // routing worker pool size
	// AttemptMs is the wall time of the node's latest attempt, a stopped
	// one included; the coordinator ranks nodes with equal jobs in flight
	// by it (DESIGN §12.1). DiskWriteMs is an EWMA of journal-write
	// latency. Each is omitted until its first sample.
	AttemptMs   float64 `json:"attempt_ms,omitempty"`
	DiskWriteMs float64 `json:"disk_write_ms,omitempty"`
	// Steal names the job a steal would take: the greatest-ID waiting job,
	// queued or parked — LIFO, the freshest work, classic work-stealing
	// order. Empty when no job waits.
	Steal string `json:"steal,omitempty"`
}

// Load snapshots the node's occupancy for heartbeats and scheduling.
func (s *Server) Load() Load {
	s.mu.Lock()
	l := Load{
		Epoch:   s.epoch,
		Live:    s.live,
		Queued:  len(s.queue) + len(s.parked),
		Running: int(s.obs.running.Value()),
		Slots:   s.capacity,
		Workers: s.cfg.Workers,
	}
	for _, waiting := range [][]*Job{s.queue, s.parked} {
		for _, j := range waiting {
			l.Steal = max(l.Steal, j.ID)
		}
	}
	s.mu.Unlock()
	// Fenced and draining outrank disk_degraded: a node that is leaving
	// is leaving, whatever its disk thinks.
	switch {
	case s.fenced.Load():
		l.Health = HealthFenced
	case s.draining.Load():
		l.Health = HealthDraining
	case s.diskDegraded.Load():
		l.Health = HealthDiskDegraded
	case l.Live == l.Slots:
		l.Health = HealthSaturated
	default:
		l.Health = HealthReady
	}
	if d := s.lastAttempt.Load(); d > 0 {
		l.AttemptMs = float64(d) / float64(time.Millisecond)
	}
	if s.diskLat.Samples() > 0 {
		l.DiskWriteMs = s.diskLat.Value()
	}
	return l
}

// StealJob relinquishes the named job to the fleet along the steal
// edge, wherever it is in its run, and returns a detached copy of its
// record, checkpoint included, for delivery to a peer. A waiting job —
// queued, parked, retrying or interrupted — takes the edge at once. A
// running attempt is cancelled: the router stops at its next abort
// check and flushes its final checkpoint, as it does for a drain, and
// the attempt takes the edge as it unwinds; the call waits for that. A
// job that settled first moves nothing: the record is nil and the state
// says where the job is.
func (s *Server) StealJob(id string) (*Job, State, error) {
	stopped := false // this call cancelled the job's attempt
	for {
		s.mu.Lock()
		j, ok := s.jobs[id]
		if !ok {
			s.mu.Unlock()
			return nil, "", fmt.Errorf("%w: %s", ErrUnknownJob, id)
		}
		for j.busy || atStolen.holds(j) {
			s.idle.Wait()
		}
		if stopped && j.State == StateHandedOff {
			rec := *j // the unwinding attempt took the steal edge
			s.mu.Unlock()
			return &rec, rec.State, nil
		}
		st, waiting := j.State, edges[evSteal].leaves(j)
		if st == StateRunning {
			j.marks |= markStolen
			cancel := j.cancelRun // nil until execute installs it; execute then checks the mark
			s.mu.Unlock()
			if cancel != nil {
				cancel()
			}
			stopped = true
			continue
		}
		s.mu.Unlock()
		if !waiting {
			return nil, st, nil
		}
		rec, err := s.transition(j, evSteal, nil)
		if errors.Is(err, errMoved) {
			continue // another edge took the job first; look again
		}
		if err != nil {
			return nil, st, fmt.Errorf("journaling steal of %s: %w", id, err)
		}
		return &rec, rec.State, nil
	}
}

// Adopt admits a job handed over by the fleet — a steal from a loaded
// peer, or the recovered record of a fenced node — preserving its ID,
// attempt count and checkpoint, so routing resumes exactly where the
// previous owner durably left off. An ID this node already knows is
// re-adopted only from handed_off (a hand-back after a failed onward
// delivery); any other state is ErrDuplicate.
func (s *Server) Adopt(rec *Job) (Status, error) {
	if err := s.admissionClosed(); err != nil {
		return Status{}, err
	}
	if rec.ID == "" || rec.snap == nil {
		return Status{}, fmt.Errorf("server: adopt: record missing id or snapshot")
	}
	for {
		j, state := s.adoptee(rec.ID)
		if state != StateHandedOff {
			return Status{}, fmt.Errorf("%w: %s is %s here", ErrDuplicate, rec.ID, state)
		}
		now := time.Now()
		out, err := s.transition(j, evAdopt, func(j *Job) {
			j.Attempt, j.Err, j.Aborted, j.snap = rec.Attempt, rec.Err, rec.Aborted, rec.snap
			// The deadline travels with the record: the budget is end-to-end.
			j.Deadline, j.created = rec.Deadline, now
		})
		if errors.Is(err, errMoved) {
			continue // a concurrent handoff of this ID settled first; look again
		}
		if err != nil {
			return Status{}, s.refused(err)
		}
		return out.status(), nil
	}
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

	// Park pending retries as interrupted (the edge disarms their
	// timers); a restarted daemon retries them.
	for _, j := range s.leaving(evDrainPark) {
		s.transition(j, evDrainPark, nil, "parked", true)
	}

	// Cancel the run context: workers stop picking up jobs, and running
	// routers abort at their next connection boundary.
	s.drainCancel()
	s.mu.Lock()
	s.work.Broadcast()
	s.mu.Unlock()

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
	for j := s.dequeue(); j != nil; j = s.dequeue() {
		s.runJob(j)
	}
}

// runJob executes one attempt of j and routes the outcome: done,
// interrupted (drain), retry, or failed.
func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	attempt := j.Attempt + 1
	s.mu.Unlock()
	run, err := s.transition(j, evStart, func(j *Job) { j.Attempt = attempt })
	if errors.Is(err, errMoved) {
		return // stolen between dequeue and start
	}
	s.obs.queueWaitSeconds.Observe(time.Since(run.enqueuedAt).Seconds())
	switch {
	case !run.Deadline.IsZero() && time.Now().After(run.Deadline):
		// The deadline expired while the job sat queued: fail fast
		// instead of burning a worker on an answer nobody is waiting for.
		s.obs.deadlineExceeded.Inc()
		s.settle(j, run.Attempt, outcome{permanent: fmt.Errorf(
			"deadline exceeded %v before attempt %d started",
			time.Since(run.Deadline).Round(time.Millisecond), run.Attempt)})
		return
	case err != nil:
		// Can't record that the job is running — journal trouble. Treat
		// like any transient fault.
		s.settle(j, run.Attempt, outcome{transient: err, cause: causeJournal})
		return
	}

	t0 := time.Now()
	out := s.execute(j, run)
	dur := time.Since(t0)
	s.obs.attemptSeconds.Observe(dur.Seconds())
	s.lastAttempt.Store(int64(dur))
	if out.res != nil && out.res.Metrics.Connections > 0 {
		// Train the deadline-admission estimate on completed attempts:
		// seconds of routing per connection, smoothed.
		s.connCost.Observe(dur.Seconds() / float64(out.res.Metrics.Connections))
	}
	s.settle(j, run.Attempt, out)
}

// outcome is the classified result of one execution attempt. Exactly
// one field is meaningful.
type outcome struct {
	res         *core.Result // finished (possibly incomplete) run
	fingerprint uint64
	auditErr    error

	interrupted bool  // cancelled; checkpoint already flushed
	transient   error // retryable failure
	permanent   error // non-retryable failure

	// cause tags a transient failure for grr_jobs_retried_total (one of
	// the cause* constants in metrics.go).
	cause string
}

// execute runs one routing attempt of j, as its start edge published
// it, with panic isolation. A panic — from the router, an interposer,
// or injected faults — is contained to this job and classified
// transient; a faultinject.Crash additionally triggers the OnCrash hook
// (grrd: die like a real SIGKILL).
func (s *Server) execute(j *Job, started Job) (out outcome) {
	defer func() {
		if p := recover(); p != nil {
			if c, ok := p.(faultinject.Crash); ok && s.cfg.OnCrash != nil {
				s.cfg.OnCrash(c)
			}
			out = outcome{transient: fmt.Errorf("panic: %v", p), cause: causePanic}
		}
	}()

	snap, deadline := started.snap, started.Deadline
	// Per-attempt context: the drain context, narrowed by the job's
	// deadline when it has one, and cancellable by StealJob when the
	// fleet moves the job. core.RouteContext merges the context deadline
	// into the abort machinery — sooner wins.
	var ctx context.Context
	var cancel context.CancelFunc
	if deadline.IsZero() {
		ctx, cancel = context.WithCancel(s.drainCtx)
	} else {
		ctx, cancel = context.WithDeadline(s.drainCtx, deadline)
	}
	defer cancel()
	s.mu.Lock()
	j.cancelRun = cancel // dropped when the job leaves running
	stolen := atStolen.holds(j)
	s.mu.Unlock()
	if stolen {
		cancel() // StealJob came before the cancel existed
	}

	// Run from a shallow copy: the sink, cadence and registry are
	// runtime-only and must not leak into the journaled snapshot.
	run := *snap
	run.Opts.Metrics = s.obs.reg
	run.Opts.CheckpointSink = func(cp *core.Checkpoint) error {
		next := *snap
		next.Check = cp
		// Mid-run checkpoints are journal writes like any other: counted,
		// and refused with ErrFenced once the epoch moves on, which is what
		// stops a zombie from checkpointing over a job a peer now owns.
		_, err := s.transition(j, evCheckpoint, func(j *Job) { j.snap = &next })
		return err
	}

	if !deadline.IsZero() {
		// The last hop of deadline propagation: the remaining end-to-end
		// budget clamps the router's own time budget (before Restore hands
		// the options to the router), so the abort fires at the deadline
		// even if the client asked for more routing time.
		run.Opts.ClampTimeBudget(time.Until(deadline))
	}

	b, r, err := run.Restore()
	if err != nil {
		// The journaled checkpoint does not fit its own design: nothing a
		// retry can fix.
		return outcome{permanent: fmt.Errorf("restore: %w", err)}
	}
	if s.cfg.BoardHook != nil {
		s.cfg.BoardHook(b)
	}

	res := r.RouteContext(ctx)
	switch res.Aborted {
	case core.AbortNone:
		return outcome{res: &res, fingerprint: b.Fingerprint(), auditErr: b.Audit()}
	case core.AbortCancelled:
		return outcome{interrupted: true}
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

// settle takes the edge an attempt's outcome calls for.
func (s *Server) settle(j *Job, attempt int, out outcome) {
	switch {
	case out.res != nil:
		if out.auditErr != nil {
			// A board that fails its final audit is corrupt state, not an
			// answer; retry from the last good checkpoint.
			s.retryOrFail(j, attempt, fmt.Errorf("final audit: %w", out.auditErr), causeAudit)
			return
		}
		// Fold the final metrics into the snapshot so the journal record
		// carries them; the routes stay at the last checkpoint, which is
		// all a terminal record needs.
		m := out.res.Metrics
		s.mu.Lock()
		final := *j.snap
		s.mu.Unlock()
		check := *final.Check
		check.Metrics = m
		final.Check = &check
		s.transition(j, evDone, func(j *Job) {
			j.snap = &final
			j.Err, j.Aborted = "", ""
			j.Fingerprint, j.AuditOK, j.Metrics = out.fingerprint, true, &m
		}, "conns", m.Connections, "fingerprint", fmt.Sprintf("%016x", out.fingerprint))

	case out.interrupted:
		// An attempt StealJob cancelled hands the job to the fleet. Any
		// other cancel is a drain, and the job keeps its slot.
		_, err := s.transition(j, evSteal, nil)
		switch {
		case errors.Is(err, errMoved):
			s.transition(j, evInterrupt, func(j *Job) { j.Aborted = core.AbortCancelled.String() })
		case err != nil:
			// The handoff record could not be written: the job stays here.
			s.retryOrFail(j, attempt, err, causeJournal)
		}

	case out.transient != nil:
		switch {
		case errors.Is(out.transient, ErrFenced):
			// Fenced mid-run (the checkpoint sink was refused): the job now
			// runs on a peer. Fail it locally without retry — every further
			// journal write would be refused too.
			s.fail(j, out.transient)
		case isDiskError(out.transient):
			// The disk refused a journal or checkpoint write (which latched
			// the degraded posture). Retrying into the same wall would burn
			// the job's attempts on the machine's fault: park it, slot kept
			// and attempts untouched, until the self-probe sees the disk heal.
			s.transition(j, evDiskPark, func(j *Job) { j.Err = out.transient.Error() },
				"err", out.transient.Error())
		default:
			s.retryOrFail(j, attempt, out.transient, out.cause)
		}

	default:
		s.fail(j, out.permanent)
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
	d := s.backoff.Delay(attempt)
	_, err := s.transition(j, evRetry, func(j *Job) { j.Err = cause.Error() },
		"cause", causeTag, "backoff", d.String(), "err", cause.Error())
	switch {
	case errors.Is(err, errMoved):
		return
	case errors.Is(err, ErrFenced):
		// No point retrying what this node may never journal: the peer that
		// adopted the job is the one retrying it now.
		s.fail(j, fmt.Errorf("%w (while retrying: %v)", err, cause))
		return
	}
	// Arm the requeue under the same lock hold that reads the drain flag:
	// a drain either finds the armed timer (and its edge stops it) or is
	// seen here. A job that already left retrying gets no timer.
	s.mu.Lock()
	draining := s.draining.Load()
	if !draining && j.State == StateRetrying {
		j.stopRetry = time.AfterFunc(d, func() { s.transition(j, evRequeue, nil) }).Stop
	}
	s.mu.Unlock()
	if draining {
		s.transition(j, evDrainPark, nil, "parked", true)
		return
	}
	s.obs.retry(causeTag)
}

// Backoff is the jittered exponential retry delay: grrd waits it
// between job attempts, the fleet coordinator between forwarding
// attempts. It is safe for concurrent use.
type Backoff struct {
	base, max time.Duration
	mu        sync.Mutex
	rng       *rand.Rand
}

// NewBackoff builds a Backoff whose jitter draws come from seed, so a
// seeded schedule replays exactly.
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	return &Backoff{base: base, max: max, rng: rand.New(rand.NewSource(seed))}
}

// Delay computes the jittered delay before retry attempt+1:
// base·2^(attempt-1) capped at max, uniformly jittered down to half
// that, so synchronized failures don't retry in lockstep.
func (b *Backoff) Delay(attempt int) time.Duration {
	d := b.base << (attempt - 1)
	if d > b.max || d <= 0 {
		d = b.max
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	b.mu.Lock()
	jit := b.rng.Int63n(half + 1)
	b.mu.Unlock()
	return time.Duration(half + jit)
}

// fail marks j permanently failed.
func (s *Server) fail(j *Job, cause error) {
	s.transition(j, evFail, func(j *Job) { j.Err = cause.Error() }, "err", cause.Error())
}

func ensureDir(dir string) error {
	return simfs.Current().MkdirAll(dir, 0o777)
}

func sortStatuses(sts []Status) {
	sort.Slice(sts, func(a, b int) bool { return sts[a].ID < sts[b].ID })
}
