package server

import (
	"fmt"
	"time"
)

// Deadline propagation — the node-side half of the fleet's tail-latency
// contract (DESIGN §14).

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
