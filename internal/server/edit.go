package server

import (
	"errors"
	"fmt"

	"repro/internal/board"
	"repro/internal/boardio"
	"repro/internal/core"
	"repro/internal/geom"
)

// This file is grrd's design-edit path (DESIGN §15): POST
// /jobs/{id}/edit derives a NEW job from a finished one by applying an
// edit script (block / remove-net / add-conn) to its design and
// connection list. The derived job is admitted, journaled and retried
// exactly like any submission — its snapshot IS the edited problem, so
// crash recovery and handoff need no knowledge of its ancestry.
//
// Incremental re-routing is purely an optimization layered on top:
// when the parent ran with recordregions and its router is still in
// the retention cache, the derived job's first attempt re-routes
// through core.Reroute — adopting every recorded route the edits did
// not disturb — instead of searching from scratch. Both paths produce
// the identical board (core's incremental contract), so a retry or a
// recovered record falling back to the from-scratch path changes
// nothing but the node count.

// Edit-path sentinels; the HTTP layer maps them to 404 and 409.
var (
	ErrUnknownJob = errors.New("server: unknown job")
	ErrNotDone    = errors.New("server: job is not done")
)

// maxRetained bounds the retention cache: routers are live board-sized
// structures, so only the most recent handful of editable runs is kept.
const maxRetained = 4

// retainedRun is one completed run kept for incremental edits.
type retainedRun struct {
	router *core.Router
}

// retain caches a completed job's router, evicting the oldest entry
// beyond maxRetained.
func (s *Server) retain(id string, run *retainedRun) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.retained[id]; !ok {
		s.retainedOrder = append(s.retainedOrder, id)
		if len(s.retainedOrder) > maxRetained {
			evict := s.retainedOrder[0]
			s.retainedOrder = s.retainedOrder[1:]
			delete(s.retained, evict)
		}
	}
	s.retained[id] = run
}

// SubmitEdit admits a job derived from parentID by applying edits: the
// parent's design with block rectangles appended as keepouts, its
// connection list with removed nets trivialized and added connections
// appended, and its router options verbatim (the incremental path may
// only run under the options the parent's regions were recorded with).
// The parent must be done. Admission — the posture gates, the deadline
// check and the admit edge — is Submit's.
func (s *Server) SubmitEdit(parentID string, edits []core.Edit, deadlineMs *int64) (Status, error) {
	if err := s.admissionClosed(); err != nil {
		return Status{}, err
	}
	if len(edits) == 0 {
		s.obs.rejectSpec.Inc()
		return Status{}, fmt.Errorf("server: edit: no edits")
	}
	budget, err := ValidateDeadline(deadlineMs)
	if err != nil {
		s.obs.rejectSpec.Inc()
		return Status{}, err
	}

	var parent Job
	s.mu.Lock()
	if j := s.jobs[parentID]; j != nil {
		parent = *j
	}
	s.mu.Unlock()
	if parent.snap == nil {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownJob, parentID)
	}
	if parent.State != StateDone {
		return Status{}, fmt.Errorf("%w: %s is %s", ErrNotDone, parentID, parent.State)
	}

	snap, err := editSnapshot(parent.snap, edits)
	if err != nil {
		s.obs.rejectSpec.Inc()
		return Status{}, err
	}
	j := &Job{snap: snap, editParent: parentID, edits: edits}
	return s.admit(j, evEdit, budget, "parent", parentID, "edits", len(edits), "conns", len(snap.Conns))
}

// editSnapshot materializes the edited problem: the parent design plus
// block keepouts, the edited connection list, the parent's options, a
// zero-progress checkpoint. Validation is eager — a bad edit script is
// the client's mistake and earns a 400, not a failed job.
func editSnapshot(parent *boardio.Snapshot, edits []core.Edit) (*boardio.Snapshot, error) {
	d2 := *parent.Design
	d2.Keepouts = append([]geom.Rect(nil), parent.Design.Keepouts...)
	bounds := d2.GridConfig().Bounds()
	for i, e := range edits {
		switch e.Op {
		case core.EditBlock:
			if e.Rect.Empty() || !bounds.Contains(e.Rect) {
				return nil, fmt.Errorf("server: edit %d: block %v outside the %v routing grid", i, e.Rect, bounds)
			}
			d2.Keepouts = append(d2.Keepouts, e.Rect)
		case core.EditRemoveNet:
			if e.Net == "" {
				return nil, fmt.Errorf("server: edit %d: remove-net needs a net name", i)
			}
		case core.EditAddConn:
			if !e.Conn.A.In(bounds) || !e.Conn.B.In(bounds) {
				return nil, fmt.Errorf("server: edit %d: add-conn %v-%v outside the %v routing grid",
					i, e.Conn.A, e.Conn.B, bounds)
			}
		default:
			return nil, fmt.Errorf("server: edit %d: unknown op %d", i, e.Op)
		}
	}
	// Trial-place the edited board now: a block rectangle overlapping a
	// pin (or existing keepout) would otherwise fail every attempt of
	// the derived job.
	b, err := board.New(d2.GridConfig())
	if err != nil {
		return nil, fmt.Errorf("server: edit: %w", err)
	}
	if err := d2.PlacePins(b); err != nil {
		return nil, fmt.Errorf("server: edit: %w", err)
	}
	opts := parent.Opts
	opts.CheckpointSink = nil // runtime-only; workers re-attach
	conns2 := core.EditConns(parent.Conns, edits)
	return &boardio.Snapshot{
		Design: &d2,
		Conns:  conns2,
		Opts:   opts,
		Check:  freshCheckpoint(len(conns2)),
	}, nil
}

// rerouteIncremental attempts the incremental fast path for an edit
// job: a fresh edited board re-routed through the retained parent
// router. Returns ok=false — with no side effects — whenever the
// preconditions fail (no retained parent, options without regions, or
// the job has already made durable progress a replay would discard);
// the caller then takes the ordinary Restore path.
func (s *Server) rerouteIncremental(run *boardio.Snapshot, j *Job) (*board.Board, *core.Router, bool) {
	s.mu.Lock()
	edits := j.edits
	parent := s.retained[j.editParent]
	s.mu.Unlock()
	if parent == nil || len(edits) == 0 {
		return nil, nil, false
	}
	cp := run.Check
	if cp.Pass != 0 || cp.NextPos != 0 || cp.Metrics.Connections != 0 {
		// A prior attempt checkpointed real progress; resume it instead
		// of replaying from the top.
		return nil, nil, false
	}
	b2, err := board.New(run.Design.GridConfig())
	if err != nil {
		return nil, nil, false
	}
	if err := run.Design.PlacePins(b2); err != nil {
		return nil, nil, false
	}
	r2, err := parent.router.Reroute(b2, edits, func(o *core.Options) {
		// Operational overlay only — algorithmic options must stay the
		// parent's, and Reroute rejects a tweak that changes them.
		o.Metrics = run.Opts.Metrics
		o.CheckpointSink = run.Opts.CheckpointSink
		o.CheckpointEvery = run.Opts.CheckpointEvery
		o.TimeBudget = run.Opts.TimeBudget
		o.Paranoid = run.Opts.Paranoid
	})
	if err != nil {
		s.log.Log("incremental_fallback", "job", j.ID, "err", err.Error())
		return nil, nil, false
	}
	return b2, r2, true
}
