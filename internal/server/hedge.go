package server

import (
	"errors"
	"fmt"
	"time"
)

// Hedged execution and deadline propagation — the node-side half of the
// fleet's tail-latency contract (DESIGN §14).
//
// Hedging gives one job two live copies on two nodes; exactly one may
// journal a terminal "done". The gate is a commit claim: the fleet
// coordinator marks both copies with a per-job attempt token (1 for the
// original, 2 for the hedge), and a token-carrying copy must win
// Config.ClaimCommit — first claimant wins — before its terminal record
// is written. The loser flips to handed_off, exactly as if the job had
// been stolen: locally final, never re-run, the winner's journal
// authoritative. Jobs that were never hedged carry no token and never
// claim, so the standalone and no-hedge fleet paths are byte-identical
// to the pre-hedging server.

// ValidateDeadline checks a submission's deadline_ms bound and converts
// it to a duration (0 = no deadline). Violations are client errors: the
// HTTP layer maps them to 400. The fleet coordinator runs the same
// check before it places a job, so both refuse the same values.
func ValidateDeadline(deadlineMs *int64) (time.Duration, error) {
	if deadlineMs == nil {
		return 0, nil
	}
	v := *deadlineMs
	if v <= 0 {
		return 0, fmt.Errorf("server: deadline_ms must be positive, got %d", v)
	}
	if v > MaxDeadlineMs {
		return 0, fmt.Errorf("server: deadline_ms %d exceeds the %d ms maximum", v, MaxDeadlineMs)
	}
	return time.Duration(v) * time.Millisecond, nil
}

// admitDeadline refuses a job whose remaining budget cannot cover its
// estimated routing cost — the 504-style fast-fail of DESIGN §14. With
// no usable estimate yet it refuses only already-expired deadlines.
func (s *Server) admitDeadline(deadline time.Time, conns int) error {
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return fmt.Errorf("%w: deadline already expired", ErrDeadline)
	}
	if est := s.estimateCost(conns); est > 0 && remaining < est {
		return fmt.Errorf("%w: %v remaining, estimated cost %v for %d connections",
			ErrDeadline, remaining.Round(time.Millisecond), est.Round(time.Millisecond), conns)
	}
	return nil
}

// estimateCost predicts how long routing conns connections takes here,
// from the EWMA of attempt seconds per connection learned from this
// node's own completed attempts. Zero means "no estimate yet" (fewer
// than three attempts trained it) — admission then only rejects
// deadlines that have already expired.
func (s *Server) estimateCost(conns int) time.Duration {
	if s.connCost.Samples() < 3 {
		return 0
	}
	return time.Duration(float64(conns) * s.connCost.Value() * float64(time.Second))
}

// ArmClaim marks a job as hedge-gated with the given token: from now on
// this node must win the coordinator's commit claim before journaling a
// terminal state for it. The coordinator calls it on the current owner
// immediately before launching a hedge; the returned state lets it skip
// the hedge when the job already settled. armed=false without error
// means the job exists but could not be gated — it is terminal, already
// handed off, or mid-commit (committing): in every case launching a
// hedge now would be useless or unsafe, so the coordinator backs off.
func (s *Server) ArmClaim(id string, token uint64) (st State, armed bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return "", false, fmt.Errorf("server: unknown job %s", id)
	}
	if !j.State.Live() || j.committing {
		return j.State, false, nil
	}
	j.claimRequired = true
	j.HedgeToken = token
	return j.State, true, nil
}

// claimTerminal asks the fleet's commit gate — when this copy is hedge-
// gated and a gate is configured — whether it may journal a terminal
// state. It also latches j.committing under the same lock hold that
// reads claimRequired, so ArmClaim can never slip a hedge in between
// the decision below and the journal write that follows it.
func (s *Server) claimTerminal(j *Job) (win bool, err error) {
	s.mu.Lock()
	j.committing = true
	required := j.claimRequired && j.State.Live()
	id, token := j.ID, j.HedgeToken
	s.mu.Unlock()
	if !required || s.cfg.ClaimCommit == nil {
		return true, nil
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			select {
			case <-s.drainCtx.Done():
				return false, lastErr
			case <-time.After(50 * time.Millisecond << (attempt - 1)):
			}
		}
		win, err := s.cfg.ClaimCommit(id, token)
		if err == nil {
			s.obs.claim(win)
			return win, nil
		}
		lastErr = err
	}
	return false, lastErr
}

// Supersede cancels this node's copy of a hedged job because a peer's
// copy won (or is about to win) the commit race. A running attempt is
// only signalled: its context is cancelled and it takes the supersede
// edge itself when it unwinds. A waiting copy — queued, retrying,
// interrupted by a drain or parked — takes the supersede edge here, once
// no other transition holds it. Terminal and handed-off copies are left
// alone. Returns the state the job was in when the cancel landed.
func (s *Server) Supersede(id string) (State, error) {
	for {
		s.mu.Lock()
		j, ok := s.jobs[id]
		if !ok {
			s.mu.Unlock()
			return "", fmt.Errorf("server: unknown job %s", id)
		}
		for j.busy {
			s.idle.Wait()
		}
		st, waiting := j.State, edges[evSupersede].leaves(j)
		if st == StateRunning {
			j.marks |= markSuperseded
			cancel := j.cancelRun
			s.mu.Unlock()
			if cancel != nil {
				cancel()
			}
			return st, nil
		}
		s.mu.Unlock()
		if !waiting {
			return st, nil
		}
		// errMoved: another edge took the job first; look again.
		if _, err := s.transition(j, evSupersede, superseding, "reason", "cancelled by coordinator"); !errors.Is(err, errMoved) {
			return st, nil
		}
	}
}
