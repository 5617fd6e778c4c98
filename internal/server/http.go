package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/boardio"
)

// Handler exposes the daemon over HTTP:
//
//	POST /jobs      submit a JobSpec; 202 + Status, or 429/503 with
//	                Retry-After when shedding load or draining
//	GET  /jobs      list all jobs
//	GET  /jobs/{id} one job's Status (404 if unknown)
//	POST /jobs/{id}/edit  derive a new job from a finished one by
//	                applying an edit script (the boardio edits format);
//	                202 + the derived job's Status, 404 unknown parent,
//	                409 parent not done, else the usual submit codes
//	GET  /healthz   liveness: 200 while the process serves at all
//	GET  /readyz    readiness: 200 ready, 503 with a body naming WHY
//	                not — "draining", "saturated" or "fenced" — so a
//	                fleet scheduler can tell "will free up, steal from
//	                it" (saturated) apart from "only ever shrinks"
//	                (draining, fenced)
//	GET  /load      the Load occupancy report (fleet heartbeats relay it,
//	                and the steal broker reads the job it names)
//	POST /fleet/steal/{id}  relinquish the named job wherever it is in
//	                     its run (a running attempt stops first): 200 +
//	                     its journal record, 409 + its state when it
//	                     settled first, 404 if unknown, 503 while the
//	                     node is draining or fenced
//	POST /fleet/handoff  adopt a journal record from a peer: 202 +
//	                     Status, 409 when this node holds the job, or
//	                     the submit codes' shedding
//	GET  /metrics   Prometheus text exposition of the daemon's registry
//	                (only when Config.Metrics is set)
//
// Liveness and readiness are deliberately distinct: a draining daemon
// is alive (it is still finishing checkpoints and answering status
// polls) but not ready, so a load balancer stops sending it work
// without killing it mid-drain.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /jobs/{id}/edit", s.handleEdit)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /load", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, s.Load())
	})
	mux.HandleFunc("POST /fleet/steal/{id}", s.handleSteal)
	mux.HandleFunc("POST /fleet/handoff", s.handleHandoff)
	if s.cfg.Metrics != nil {
		mux.Handle("GET /metrics", s.cfg.Metrics)
	}
	return mux
}

// handleReadyz answers readiness with a body that names the posture.
// Ready and saturated nodes both keep their place in the fleet ("ready"
// is 200; "saturated" is 503 so plain load balancers back off too, but
// the body tells the fleet scheduler it is a steal-from candidate that
// will free up). Draining and fenced nodes are leaving: drain-only.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if h != HealthReady {
		code = http.StatusServiceUnavailable
	}
	switch h {
	case HealthSaturated:
		// Saturated is temporary: a slot frees after roughly one backoff.
		w.Header().Set("Retry-After", s.retryAfterFull)
	case HealthDraining:
		w.Header().Set("Retry-After", s.retryAfterDrain)
	case HealthDiskDegraded:
		// The disk is re-probed every DiskProbeEvery; that is the soonest
		// the posture can clear.
		w.Header().Set("Retry-After", s.retryAfterDisk)
	}
	s.writeJSON(w, code, map[string]string{"status": h})
}

// handleSteal gives up the job the path names, wherever it is in its
// run, and writes its full journal record (checkpoint included) as the
// response body, in the grrdjob format. The job is already flipped to
// handed_off and journaled before a byte is written, so a half-delivered
// response strands the job as handed_off here, where the coordinator
// that named it reads it from the journal — it never runs in two places.
func (s *Server) handleSteal(w http.ResponseWriter, r *http.Request) {
	if s.fenced.Load() || s.draining.Load() {
		// A leaving node's queue is the coordinator's to recover wholesale,
		// not to nibble at job by job.
		s.writeJSON(w, http.StatusServiceUnavailable, httpError{Error: "node is " + s.Health()})
		return
	}
	rec, st, err := s.StealJob(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownJob):
		s.writeJSON(w, http.StatusNotFound, httpError{Error: err.Error()})
		return
	case err != nil:
		s.writeJSON(w, http.StatusInternalServerError, httpError{Error: err.Error()})
		return
	case rec == nil:
		// The job settled, or was handed off, before the steal landed.
		s.writeJSON(w, http.StatusConflict, map[string]string{"state": string(st)})
		return
	}
	w.Header().Set("Content-Type", "application/x-grrdjob")
	if err := rec.EncodeRecord(w); err != nil {
		s.log.Log("http_write_error", "job", rec.ID, "err", err.Error())
	}
}

// handleHandoff adopts a journal record a peer (or the coordinator)
// delivers. The record travels in the same checksummed grrdjob format
// the journal uses on disk — a truncated or corrupted transfer fails
// the checksum and is rejected, it cannot admit a half-job.
func (s *Server) handleHandoff(w http.ResponseWriter, r *http.Request) {
	rec, err := DecodeRecord(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, httpError{Error: "bad job record: " + err.Error()})
		return
	}
	st, err := s.Adopt(rec)
	switch {
	case err == nil:
		s.writeJSON(w, http.StatusAccepted, st)
	case errors.Is(err, ErrDuplicate):
		s.writeJSON(w, http.StatusConflict, httpError{Error: err.Error()})
	default:
		s.refuse(w, err)
	}
}

// httpError is the uniform error payload.
type httpError struct {
	Error string `json:"error"`
}

// refuse answers an admission refusal — of a submit, an edit or a
// handoff — with its HTTP status and Retry-After hint. One table for
// all three, so the codes can't drift.
func (s *Server) refuse(w http.ResponseWriter, err error) {
	code, retryAfter := http.StatusBadRequest, ""
	switch {
	case errors.Is(err, ErrQueueFull):
		// Shed load, don't queue unboundedly: tell the client when to
		// come back. A slot frees after roughly one backoff interval, so
		// the hint derives from Config.RetryBase, not a hardcoded guess.
		code, retryAfter = http.StatusTooManyRequests, s.retryAfterFull
	case errors.Is(err, ErrDraining), errors.Is(err, ErrFenced):
		// A draining daemon is gone for good after at most DrainBudget,
		// and a fenced one admits nothing again; steer the client to a
		// peer on that horizon.
		code, retryAfter = http.StatusServiceUnavailable, s.retryAfterDrain
	case errors.Is(err, ErrDiskDegraded):
		// 507 Insufficient Storage: the truthful code for "this node's
		// disk cannot take your job". Retry-After points at the next
		// self-probe; fleet clients treat it like any other shed.
		code, retryAfter = http.StatusInsufficientStorage, s.retryAfterDisk
	case errors.Is(err, ErrDeadline):
		// 504 Gateway Timeout: the job's deadline budget cannot cover
		// its estimated cost here. Retry-After hints at the backoff
		// horizon — a less loaded (or faster) node may still make it.
		code, retryAfter = http.StatusGatewayTimeout, s.retryAfterFull
	case errors.Is(err, ErrInternal):
		code = http.StatusInternalServerError
	}
	// Otherwise 400: admission validates the request before touching
	// the queue, so any other error is a client-side problem.
	if retryAfter != "" {
		w.Header().Set("Retry-After", retryAfter)
	}
	s.writeJSON(w, code, httpError{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, code, err := DecodeSpec(w, r, MaxBodyBytes)
	if err != nil {
		s.writeJSON(w, code, httpError{Error: err.Error()})
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		s.refuse(w, err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, st)
}

// DecodeSpec is the request step of POST /jobs. grrd and the fleet
// coordinator both run it, so the two refuse the same requests with the
// same status: a body over maxBytes is a 413, and a body that is not
// one JobSpec (an unknown field included) is a 400. The spec's own
// checks — deadline_ms, the design, the options — come after, at
// admission.
func DecodeSpec(w http.ResponseWriter, r *http.Request, maxBytes int64) (JobSpec, int, error) {
	var spec JobSpec
	if err := decodeStrict(w, r, maxBytes, &spec); err != nil {
		return spec, bodyErrCode(err), fmt.Errorf("bad job spec: %w", err)
	}
	return spec, 0, nil
}

// decodeStrict decodes one JSON request body of at most maxBytes into
// v, refusing fields v does not have.
func decodeStrict(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// bodyErrCode distinguishes an oversize body (413, the MaxBodyBytes
// hardening cap) from a malformed one (400).
func bodyErrCode(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// editRequest is the POST /jobs/{id}/edit payload: the edit script in
// the boardio edits text format, plus an optional deadline for the
// derived job.
type editRequest struct {
	Edits      string `json:"edits"`
	DeadlineMs *int64 `json:"deadline_ms,omitempty"`
}

// handleEdit derives a new job from a finished one (DESIGN §15.2). The
// derived job is an ordinary submission — journaled, routed from
// scratch, retried, pollable at GET /jobs/{id}.
func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	var req editRequest
	if err := decodeStrict(w, r, MaxBodyBytes, &req); err != nil {
		s.writeJSON(w, bodyErrCode(err), httpError{Error: "bad edit request: " + err.Error()})
		return
	}
	edits, err := boardio.ReadEdits(strings.NewReader(req.Edits))
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, httpError{Error: err.Error()})
		return
	}
	st, err := s.SubmitEdit(r.PathValue("id"), edits, req.DeadlineMs)
	switch {
	case err == nil:
		s.writeJSON(w, http.StatusAccepted, st)
	case errors.Is(err, ErrUnknownJob):
		s.writeJSON(w, http.StatusNotFound, httpError{Error: err.Error()})
	case errors.Is(err, ErrNotDone):
		s.writeJSON(w, http.StatusConflict, httpError{Error: err.Error()})
	default:
		s.refuse(w, err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, httpError{Error: "unknown job"})
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// writeJSON renders one response. An Encode error here is a client
// that hung up mid-body (or a marshal bug) — nothing to send them, but
// not something to drop silently either.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.log.Log("http_write_error", "status", code, "err", err.Error())
	}
}

// retryAfterSeconds renders a duration as the whole-second Retry-After
// value, rounded up and at least 1 — HTTP has no sub-second form.
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
