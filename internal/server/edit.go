package server

import (
	"errors"
	"fmt"

	"repro/internal/boardio"
	"repro/internal/core"
)

// This file is grrd's design-edit path (DESIGN §15.2): POST
// /jobs/{id}/edit derives a NEW job from a finished one by applying an
// edit script (block / remove-net / add-conn) to its design and
// connection list. The derived job is admitted, journaled, routed from
// scratch and retried exactly like any submission — its snapshot IS
// the edited problem, so crash recovery and handoff need no knowledge
// of its ancestry.

// Edit-path sentinels; the HTTP layer maps them to 404 and 409.
var (
	ErrUnknownJob = errors.New("server: unknown job")
	ErrNotDone    = errors.New("server: job is not done")
)

// SubmitEdit admits a job derived from parentID by applying edits: the
// parent's design with block rectangles appended as keepouts, its
// connection list with removed nets trivialized and added connections
// appended, and its router options verbatim. The parent must be done.
// Admission — the posture gates, the deadline check and the admit
// edge — is Submit's; the job_submitted line names the parent.
func (s *Server) SubmitEdit(parentID string, edits []core.Edit, deadlineMs *int64) (Status, error) {
	if err := s.admissionClosed(); err != nil {
		return Status{}, err
	}
	if len(edits) == 0 { // EditDesign refuses it too, but only after the parent lookup
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
	return s.admit(&Job{snap: snap}, budget, "parent", parentID, "edits", len(edits), "conns", len(snap.Conns))
}

// editSnapshot materializes the edited problem: boardio.EditDesign's
// design and connections, the parent's options and a zero-progress
// checkpoint. Validation is eager — a bad edit script is the client's
// mistake and earns a 400, not a failed job.
func editSnapshot(parent *boardio.Snapshot, edits []core.Edit) (*boardio.Snapshot, error) {
	d, _, conns, err := boardio.EditDesign(parent.Design, parent.Conns, edits)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	opts := parent.Opts
	opts.CheckpointSink = nil // runtime-only; workers re-attach
	return &boardio.Snapshot{
		Design: d,
		Conns:  conns,
		Opts:   opts,
		Check:  freshCheckpoint(len(conns)),
	}, nil
}
