package server

import (
	"errors"
	"slices"
	"sort"
	"time"
)

// The job lifecycle (DESIGN §9.5). Every state change a job can make is
// one row of the edges table, and transition is the only code that
// checks an edge, writes a job's journal record, moves its admission
// slot and run-queue entry, and publishes its new state. A per-job latch
// held from the check to the log line gives every record one writer at
// a time, so no ordering of lock, write and publish needs defending call
// site by call site.

// event names one edge of the lifecycle table.
type event int

const (
	evAdmit      event = iota // Submit or SubmitEdit: a new job is queued
	evAdopt                   // Adopt: a peer's record is queued here
	evRecover                 // New: a live journal record is requeued
	evStart                   // a worker starts an attempt
	evCheckpoint              // the router flushes a durable checkpoint
	evDone                    // the attempt finished with an answer
	evRetry                   // the attempt failed transiently
	evRequeue                 // the retry backoff elapsed
	evFail                    // a permanent failure, or attempts exhausted
	evInterrupt               // a drain cancelled the running attempt
	evDrainPark               // a drain parked a pending retry
	evDiskPark                // the attempt died on a disk error
	evUnpark                  // the disk healed
	evSteal                   // the fleet took the job: a waiting one, or a stopped attempt
	evRejournal               // the disk healed under an unjournaled handoff
	numEvents
)

// The column types of the lifecycle table.
type (
	mark        uint8 // runtime flags the table narrows states by
	slotMove    uint8 // an edge's effect on the admission semaphore
	writePolicy uint8 // what a failed journal write does to the edge
)

// Job.marks flags; the table narrows a state to jobs carrying marks.
const (
	markParked      mark = 1 << iota // interrupted by a degraded disk, slot kept
	markStolen                       // a running attempt StealJob cancelled; kept while running
	markUnjournaled                  // handed_off, but the disk refused its record
)

const (
	slotKeep    slotMove = iota
	slotTake             // acquire without blocking; a full node refuses the edge
	slotRelease          // the job stops being live here
)

const (
	writeMust    writePolicy = iota // undo the edge and return the error
	writeBest                       // publish anyway and return the error
	writeHandoff                    // writeMust, unless the disk is degraded: then publish unjournaled
)

// at is a place in the lifecycle: a state, narrowed to the jobs that
// carry every flag in marks.
type at struct {
	state State
	marks mark
}

func (a at) holds(j *Job) bool { return j.State == a.state && j.marks&a.marks == a.marks }

// edge is one row of the lifecycle table.
type edge struct {
	from  []at // where the edge may start; nil means a job not yet admitted
	to    at
	slot  slotMove
	queue bool // the job joins the run queue
	write writePolicy
	count []string // counters bumped when the edge is taken
	log   string   // structured log event ("" for none)
}

// The places the table names.
var (
	atQueued      = at{state: StateQueued}
	atRunning     = at{state: StateRunning}
	atStolen      = at{StateRunning, markStolen}
	atRetrying    = at{state: StateRetrying}
	atInterrupted = at{state: StateInterrupted}
	atParked      = at{StateInterrupted, markParked}
	atDone        = at{state: StateDone}
	atFailed      = at{state: StateFailed}
	atHandedOff   = at{state: StateHandedOff}
	atUnjournaled = at{StateHandedOff, markUnjournaled}
)

// edges is the lifecycle table. DESIGN §9.5 carries the same table as
// the spec; keep the two in step.
var edges = [numEvents]edge{
	evAdmit: {to: atQueued, slot: slotTake, queue: true, write: writeMust,
		count: []string{"grr_jobs_submitted_total"}, log: "job_submitted"},
	evAdopt: {from: []at{atHandedOff}, to: atQueued, slot: slotTake, queue: true, write: writeMust,
		count: []string{"grr_jobs_adopted_total"}, log: "job_adopted"},
	evRecover: {from: []at{atQueued, atRunning, atRetrying, atInterrupted}, to: atQueued,
		slot: slotTake, queue: true, write: writeMust,
		count: []string{"grr_jobs_recovered_total"}, log: "job_recovered"},
	evStart: {from: []at{atQueued}, to: atRunning, write: writeBest,
		count: []string{"grr_job_attempts_total"}, log: "job_running"},
	evCheckpoint: {from: []at{atRunning}, to: atRunning, write: writeBest},
	evDone: {from: []at{atRunning}, to: atDone, slot: slotRelease, write: writeBest,
		count: []string{"grr_jobs_done_total"}, log: "job_done"},
	// Retries are counted by cause, which only the caller knows.
	evRetry: {from: []at{atRunning}, to: atRetrying, write: writeBest,
		log: "job_retrying"},
	evRequeue: {from: []at{atRetrying}, to: atQueued, queue: true, write: writeBest,
		log: "job_requeued"},
	evFail: {from: []at{atRunning, atRetrying}, to: atFailed, slot: slotRelease, write: writeBest,
		count: []string{"grr_jobs_failed_total"}, log: "job_failed"},
	evInterrupt: {from: []at{atRunning}, to: atInterrupted, write: writeBest,
		count: []string{"grr_jobs_interrupted_total"}, log: "job_interrupted"},
	evDrainPark: {from: []at{atRetrying}, to: atInterrupted, write: writeBest,
		count: []string{"grr_jobs_interrupted_total"}, log: "job_interrupted"},
	evDiskPark: {from: []at{atRunning}, to: atParked, write: writeBest,
		count: []string{"grr_disk_jobs_parked_total", "grr_jobs_interrupted_total"}, log: "job_parked_disk"},
	evUnpark: {from: []at{atParked}, to: atQueued, queue: true, write: writeMust,
		log: "job_unparked"},
	evSteal: {from: []at{atQueued, atRetrying, atInterrupted, atStolen}, to: atHandedOff, slot: slotRelease,
		write: writeHandoff, count: []string{"grr_jobs_stolen_total"}, log: "job_stolen"},
	evRejournal: {from: []at{atUnjournaled}, to: atHandedOff, write: writeMust,
		log: "handoff_rejournaled"},
}

// leaves reports whether e may start from where j is now.
func (e *edge) leaves(j *Job) bool {
	return slices.ContainsFunc(e.from, func(a at) bool { return a.holds(j) })
}

// errMoved: the job is no longer where the edge starts — another
// transition got there first. Nothing the caller asked for happened.
var errMoved = errors.New("server: job moved on")

// transition moves j along edge ev and returns the job as published.
// set, when non-nil, is the edge's field change: it is applied to the
// record being written and again, at publish, to the job itself, so it
// must be a plain assignment of values fixed before the call. kv extends
// the edge's log line, which always carries the job ID, attempt and
// routed count.
//
// Under the job's latch the steps run in one order: check (a taking
// edge takes its slot there), write, publish (a releasing edge returns
// its slot there), then enqueue, count and log.
// An edge that does not start where the job is returns errMoved. A
// caller with nothing further to do when the edge fails may drop the
// result: transition has already logged a failed write and applied the
// edge's write policy.
func (s *Server) transition(j *Job, ev event, set func(*Job), kv ...any) (Job, error) {
	e := &edges[ev]
	s.mu.Lock()
	for j.busy {
		s.idle.Wait()
	}
	// A new job is not registered yet; any other must be, and be where
	// the edge starts. A taking edge holds its slot from here on.
	switch cur := s.jobs[j.ID]; {
	case !(e.from == nil && cur == nil || cur == j && e.leaves(j)):
		s.mu.Unlock()
		return Job{}, errMoved
	case e.slot == slotTake && s.live == s.capacity:
		s.forget(j)
		s.mu.Unlock()
		return Job{}, ErrQueueFull
	case e.slot == slotTake:
		s.live++
	}
	if j.ID == "" {
		j.ID = s.newID() // minted only once admission holds a slot
	}
	j.busy = true
	s.mu.Unlock()
	defer s.release(j)

	s.mu.Lock()
	rec := *j
	rec.State = e.to.state
	if set != nil {
		set(&rec)
	}
	s.mu.Unlock()
	err := s.saveJob(&rec)
	unjournaled := false
	if err != nil {
		s.log.Log("journal_write_error", "job", j.ID, "state", string(e.to.state), "err", err.Error())
		degraded := s.diskDegraded.Load() && !errors.Is(err, ErrFenced)
		switch {
		case e.write == writeMust, e.write == writeHandoff && !degraded:
			s.mu.Lock()
			if e.slot == slotTake {
				s.live--
			}
			s.forget(j)
			s.gauges()
			s.mu.Unlock()
			return Job{}, err
		case e.write == writeHandoff:
			// Moving work off a degraded disk is the point of the steal.
			s.log.Log("job_stolen_unjournaled", "job", j.ID, "err", err.Error())
			err = nil
		}
		// A handoff published without its record is written when the
		// disk heals (evRejournal); until then a restart would run it.
		unjournaled = e.to == atHandedOff
	}
	s.mu.Lock()
	if e.slot == slotRelease {
		s.live--
	}
	from, wasParked := j.State, atParked.holds(j)
	wasRunning := from == StateRunning && ev != evRecover // a recovered record never ran here
	j.State = e.to.state
	if set != nil {
		set(j)
	}
	if j.State == StateRunning {
		j.marks = j.marks&markStolen | e.to.marks // a checkpoint keeps the steal's mark
	} else {
		j.marks = e.to.marks
	}
	if unjournaled {
		j.marks |= markUnjournaled
	}
	if from == StateRetrying && j.stopRetry != nil {
		j.stopRetry()
		j.stopRetry = nil
	}
	switch running := j.State == StateRunning; {
	case wasRunning && !running:
		s.obs.running.Add(-1)
		j.cancelRun = nil
	case running && !wasRunning:
		s.obs.running.Add(1)
	}
	switch parked := atParked.holds(j); {
	case parked && !wasParked:
		s.parked = append(s.parked, j)
	case wasParked && !parked:
		s.parked = slices.DeleteFunc(s.parked, func(p *Job) bool { return p == j })
	}
	if e.from == nil {
		s.jobs[j.ID] = j
	}
	if from == StateQueued { // drop its run-queue entry, if a worker has not popped it
		s.queue = slices.DeleteFunc(s.queue, func(q *Job) bool { return q == j })
	}
	if e.queue {
		j.enqueuedAt = time.Now()
		s.queue = append(s.queue, j)
		s.work.Signal()
	}
	s.gauges()
	out := *j
	s.mu.Unlock()

	for _, c := range s.obs.edge[ev] {
		c.Inc()
	}
	if e.to.state.Terminal() && !out.created.IsZero() {
		s.obs.jobSeconds.Observe(time.Since(out.created).Seconds())
	}
	if e.log != "" {
		s.log.Log(e.log, append([]any{"job", out.ID, "attempt", out.Attempt, "routed", out.status().Routed}, kv...)...)
	}
	return out, err
}

// release drops j's latch and wakes every transition waiting for one.
func (s *Server) release(j *Job) {
	s.mu.Lock()
	j.busy = false
	s.idle.Broadcast()
	s.mu.Unlock()
}

// adoptee returns the job an adoption of id moves, and its state: the
// one this node knows, or a new handed_off placeholder, so a second
// handoff of the ID waits on its latch (forget drops it on refusal).
func (s *Server) adoptee(id string) (*Job, State) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		j = &Job{ID: id, State: StateHandedOff}
		s.jobs[id] = j
	}
	if n := jobSeq(id); n >= s.seq {
		s.seq = n + 1 // insurance against ID reuse if names ever collide
	}
	return j, j.State
}

// forget drops an adoption placeholder whose edge was refused: a job
// without a snapshot was never admitted here. Callers hold s.mu.
func (s *Server) forget(j *Job) {
	if j.snap == nil && s.jobs[j.ID] == j {
		delete(s.jobs, j.ID)
	}
}

// dequeue blocks until a job is queued and pops it, or returns nil once
// the drain has begun — a ready drain always wins over ready work.
func (s *Server) dequeue() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && s.drainCtx.Err() == nil {
		s.work.Wait()
	}
	if s.drainCtx.Err() != nil {
		return nil
	}
	j := s.queue[0]
	s.queue = s.queue[1:]
	s.gauges()
	return j
}

// leaving lists the jobs edge ev may start from, sorted by ID.
func (s *Server) leaving(ev event) []*Job { return s.jobsAt(edges[ev].from...) }

// jobsAt lists the jobs at any of places, sorted by ID.
func (s *Server) jobsAt(places ...at) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for _, j := range s.jobs {
		if slices.ContainsFunc(places, func(a at) bool { return a.holds(j) }) {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(x, y int) bool { return out[x].ID < out[y].ID })
	return out
}

// saveJob journals one job record through saveJobRecord, counting
// writes and write failures. All journal writes in the server go
// through here — and every one re-checks the journal epoch first, so a
// node whose jobs were fenced over to a peer (epoch bumped in its
// journal dir) is refused before it can double-commit anything. The
// first refusal latches s.fenced: the node stops admitting and fails
// its in-flight work without journaling.
func (s *Server) saveJob(rec *Job) error {
	if err := checkEpoch(s.cfg.JournalDir, s.epoch); err != nil {
		if errors.Is(err, ErrFenced) && s.fenced.CompareAndSwap(false, true) {
			s.log.Log("journal_fenced", "job", rec.ID, "epoch", s.epoch, "err", err.Error())
		}
		s.obs.journalFenced.Inc()
		// A checkEpoch failure that is not a fence is a failed read of the
		// EPOCH file — possibly the disk, so classify it too.
		s.noteDiskError(err)
		return err
	}
	t0 := time.Now()
	err := saveJobRecord(s.cfg.JournalDir, rec)
	s.obs.journalWrites.Inc()
	if err != nil {
		s.obs.journalWriteErrs.Inc()
		s.noteDiskError(err)
		return err
	}
	// Journal-write latency, as the heartbeat Load reports it; only
	// successful writes train it (failures latch the degraded posture
	// instead — a different failure mode).
	s.diskLat.Observe(float64(time.Since(t0).Microseconds()) / 1000)
	return nil
}
