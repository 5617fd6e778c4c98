// Package server implements grrd, the fault-tolerant board-routing job
// daemon. It composes the router's budget/abort machinery (DESIGN §7)
// and the checkpoint/resume machinery (DESIGN §8) into a long-lived
// service whose failure domain is one job, not the process:
//
//   - jobs are admitted into a bounded queue and run on a bounded worker
//     pool with per-job panic isolation and deadline propagation into
//     core.RouteContext;
//   - a full queue sheds load with ErrQueueFull (HTTP 429 + Retry-After)
//     instead of growing without bound;
//   - transient failures — rollback conflicts surfacing as invariant
//     aborts, injected faults, journal-write errors, panics — are
//     retried with exponential backoff and jitter, resuming from the
//     job's last durable checkpoint;
//   - SIGTERM drains gracefully: admission stops (readiness flips),
//     in-flight jobs abort at their next connection boundary and flush a
//     final checkpoint to the journal;
//   - every job lives in a crash-safe on-disk journal (atomic rename,
//     fsync, whole-file checksum, the boardio snapshot codec), so a
//     SIGKILL'd daemon restarts, resumes interrupted jobs with
//     core.Resume, and — the router being deterministic — finishes them
//     bit-identically to an uninterrupted run.
package server

import (
	"context"
	"fmt"
	"time"

	"repro/internal/boardio"
	"repro/internal/core"
)

// State is a job's lifecycle position. States are serialized verbatim
// into the journal and the HTTP status JSON.
type State string

const (
	// StateQueued: admitted and journaled, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is routing it (checkpointing as it goes).
	StateRunning State = "running"
	// StateRetrying: failed transiently; scheduled for another attempt
	// after a backoff.
	StateRetrying State = "retrying"
	// StateInterrupted: checkpointed by a graceful drain. A restarted
	// daemon requeues it, as it does any non-terminal job it finds.
	StateInterrupted State = "interrupted"
	// StateDone: finished; fingerprint, audit verdict and metrics are
	// recorded. A job that ran out of passes with connections unrouted
	// is still done — an infeasible board is an answer, not a failure.
	StateDone State = "done"
	// StateFailed: gave up — attempts exhausted, budget expired, or a
	// permanent error.
	StateFailed State = "failed"
	// StateHandedOff: this node relinquished the job to a peer — stolen
	// by the fleet, or recovered from this journal by the fleet
	// coordinator after the node was fenced. Locally final: the node
	// never runs it again and a restart never requeues it; the
	// authoritative record now lives in the new owner's journal.
	StateHandedOff State = "handed_off"
)

// Terminal reports whether the job reached a final answer (done or
// failed). A handed-off job is NOT terminal: it is still live somewhere,
// just not here — use Live to ask whether THIS node still owns it.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Live reports whether this node still owns the job: false once it is
// terminal or handed off to a peer. Recovery requeues exactly the live
// records; steal and fencing flip jobs to handed_off so a restarted (or
// zombie) node cannot run work a peer now owns.
func (s State) Live() bool { return !s.Terminal() && s != StateHandedOff }

func parseState(v string) (State, error) {
	switch s := State(v); s {
	case StateQueued, StateRunning, StateRetrying, StateInterrupted, StateDone, StateFailed, StateHandedOff:
		return s, nil
	}
	return "", fmt.Errorf("server: unknown job state %q", v)
}

// JobSpec is the client-facing submission payload: a .brd design, an
// optional pre-strung .con connection list (default: the design's nets
// are strung with the standard chain stringer), and router options as
// the snapshot codec's name→integer map (boardio.ApplyOption).
type JobSpec struct {
	Design  string           `json:"design"`
	Conns   string           `json:"conns,omitempty"`
	Options map[string]int64 `json:"options,omitempty"`
	// DeadlineMs, when present, is the end-to-end budget the client
	// grants this job, in milliseconds from admission. It must be
	// positive and at most MaxDeadlineMs — a pointer so "absent" (no
	// deadline, the default) is distinguishable from an explicit zero,
	// which is rejected. Each forwarding hop decrements it by the time
	// already spent, and the worker clamps core.Options.TimeBudget to
	// what is left (DESIGN §14).
	DeadlineMs *int64 `json:"deadline_ms,omitempty"`
}

// Job is the server's record of one routing job. All fields are guarded
// by the owning Server's mutex, and only Server.transition changes a
// job's place in the lifecycle (lifecycle.go). snap's Design/Conns/Opts
// are immutable after admission and its Check pointer is swapped
// wholesale at each checkpoint, so a journal writer can serialize a
// consistent record without holding the lock.
type Job struct {
	ID      string
	State   State
	Attempt int    // executions started (1-based; 0 = never ran)
	Err     string // last failure detail, cleared on success
	Aborted string // abort reason of the last interrupted run

	// snap is the routing problem plus its latest durable checkpoint —
	// exactly what a worker (or a restarted daemon) resumes from.
	snap *boardio.Snapshot

	// Results of a completed run.
	Fingerprint uint64
	AuditOK     bool
	Metrics     *core.Metrics

	// Deadline is the absolute wall-clock instant the client's
	// deadline_ms budget expires; zero when the job has none. Journaled
	// (as unix nanos), so a handed-off or recovered job keeps its
	// deadline — the budget is end-to-end, not per-owner.
	Deadline time.Time

	// busy is the job's latch: set while a transition runs, from its
	// check to its log line, so each record has one writer at a time.
	// Waiters sleep on Server.idle. Runtime-only.
	busy bool

	// stopRetry cancels a pending backoff timer; nil when none is armed.
	stopRetry func() bool

	// cancelRun aborts the running attempt's context. Runtime-only.
	cancelRun context.CancelFunc

	// enqueuedAt is when the job last entered the run queue;
	// grr_queue_wait_seconds is measured from it. Runtime-only.
	enqueuedAt time.Time

	// marks are the runtime flags the lifecycle table narrows states by
	// (markParked, markStolen, markUnjournaled). Runtime-only.
	marks mark

	// created is when this process admitted (or recovered) the job —
	// runtime-only, for the grr_job_seconds latency histogram. Not
	// journaled: a restarted daemon measures from recovery.
	created time.Time
}

// Status is the JSON shape served by GET /jobs/{id}.
type Status struct {
	ID      string `json:"id"`
	State   State  `json:"state"`
	Attempt int    `json:"attempt"`
	Conns   int    `json:"conns"`
	Routed  int    `json:"routed"`
	Error   string `json:"error,omitempty"`
	Aborted string `json:"aborted,omitempty"`
	// Fingerprint and AuditOK are set once the job is done: the board's
	// FNV-64a fingerprint (the bit-identity witness of crash recovery)
	// and whether the final invariant audit passed.
	Fingerprint string        `json:"fingerprint,omitempty"`
	AuditOK     *bool         `json:"audit_ok,omitempty"`
	Metrics     *core.Metrics `json:"metrics,omitempty"`
	// DeadlineMs is the remaining deadline budget in milliseconds
	// (rounded up, possibly negative once overdue), present only while
	// a deadline-carrying job is still live.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// Status snapshots a detached job record — one produced by
// DecodeRecord or LoadRecords, which nothing else mutates. For jobs
// owned by a live Server, use Server.Status instead.
func (j *Job) Status() Status { return j.status() }

// Snapshot returns the job's routing snapshot (problem + latest durable
// checkpoint). Same detached-record caveat as Status.
func (j *Job) Snapshot() *boardio.Snapshot { return j.snap }

// status snapshots the job. Callers hold the server mutex.
func (j *Job) status() Status {
	st := Status{
		ID:      j.ID,
		State:   j.State,
		Attempt: j.Attempt,
		Error:   j.Err,
		Aborted: j.Aborted,
	}
	if j.snap != nil {
		st.Conns = len(j.snap.Conns)
		st.Routed = j.snap.Check.Metrics.Routed
	}
	if j.Metrics != nil {
		m := *j.Metrics
		st.Metrics = &m
		st.Routed = m.Routed
	}
	if j.State == StateDone {
		st.Fingerprint = fmt.Sprintf("%016x", j.Fingerprint)
		ok := j.AuditOK
		st.AuditOK = &ok
	}
	if !j.Deadline.IsZero() && j.State.Live() {
		ms := time.Until(j.Deadline).Milliseconds()
		if ms == 0 {
			ms = 1 // still ahead of the deadline by sub-millisecond; 0 would read as "none"
		}
		st.DeadlineMs = ms
	}
	return st
}

// freshCheckpoint is the zero-progress checkpoint a job is admitted
// with: no routes, cursor at pass 0 position 0, and the fresh-run
// progress sentinel (conns+1, matching core's initial prevUnrouted), so
// resuming from it is bit-identical to a fresh Route call.
func freshCheckpoint(conns int) *core.Checkpoint {
	return &core.Checkpoint{
		PrevUnrouted: conns + 1,
		Routes:       make([]core.ConnRoute, conns),
	}
}
