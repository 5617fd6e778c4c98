package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/server"
)

// Handler exposes the coordinator over HTTP. The job surface mirrors a
// single grrd — clients talk to the fleet exactly as they would talk
// to one daemon, and a request grrd refuses gets the same status here
// — plus the fleet-control endpoints the agents use:
//
//	POST /jobs      submit; placed on a worker (202), refused as grrd
//	                refuses it (400, 413; a node's 400 comes back with
//	                the node's error text), or shed with 429 +
//	                Retry-After when no node can take it
//	GET  /jobs      fleet-wide job list (proxied node views merged with
//	                the coordinator's own results and jobs in transit)
//	GET  /jobs/{id} one job, proxied to the node that holds it;
//	                terminal results are served from the coordinator
//	                even after the node that computed them is gone
//	POST /join      agent registration {node, addr, journal, epoch}
//	POST /heartbeat agent liveness + load {node, epoch, load}; 410 once
//	                the node is fenced — the zombie's cue that its jobs
//	                have moved on
//	GET  /nodes     the coordinator's fleet view
//	GET  /healthz   liveness
//	GET  /readyz    200 while at least one node is schedulable
//	GET  /metrics   fleet series (only when Config.Metrics is set)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", c.handleSubmit)
	mux.HandleFunc("GET /jobs", c.handleList)
	mux.HandleFunc("GET /jobs/{id}", c.handleStatus)
	mux.HandleFunc("POST /join", c.handleJoin)
	mux.HandleFunc("POST /heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /nodes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Nodes())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if len(c.candidates()) == 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no schedulable nodes"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	if c.cfg.Metrics != nil {
		mux.Handle("GET /metrics", c.cfg.Metrics)
	}
	return mux
}

// joinRequest is the agent registration / heartbeat payload.
type joinRequest struct {
	Node    string      `json:"node"`
	Addr    string      `json:"addr,omitempty"`
	Journal string      `json:"journal,omitempty"`
	Epoch   uint64      `json:"epoch"`
	Load    server.Load `json:"load"`
}

type httpError struct {
	Error string `json:"error"`
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "bad join: " + err.Error()})
		return
	}
	if err := c.Join(req.Node, req.Addr, req.Journal, req.Epoch, req.Load); err != nil {
		writeJSON(w, http.StatusConflict, httpError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "joined"})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "bad heartbeat: " + err.Error()})
		return
	}
	err := c.Heartbeat(req.Node, req.Epoch, req.Load)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	case errors.Is(err, errFencedNode):
		// 410, not 404: the node existed and is deliberately gone. The
		// zombie must not re-join with the same journal — and cannot, the
		// fenced EPOCH file refuses it at startup.
		writeJSON(w, http.StatusGone, httpError{Error: err.Error()})
	default:
		// Unknown node: the coordinator restarted and lost its view. 404
		// tells the agent to re-join, which rebuilds it.
		writeJSON(w, http.StatusNotFound, httpError{Error: err.Error()})
	}
}

// handleSubmit admits one job into the fleet: grrd's own request step,
// then forwarding in candidate order with per-node transport retries.
// Admission refusals walk to the next candidate; when every node
// refuses, the strongest Retry-After seen propagates to the client — a
// shrunken pool looks exactly like one saturated grrd.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, code, err := server.DecodeSpec(w, r, server.MaxBodyBytes)
	if err != nil {
		writeJSON(w, code, httpError{Error: err.Error()})
		return
	}
	p := c.placeJob(spec)
	if p.accepted {
		w.Header().Set("X-Grr-Node", p.node)
		writeJSON(w, http.StatusAccepted, p.st)
		return
	}
	if p.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(p.retryAfter))
	}
	writeJSON(w, p.code, httpError{Error: p.errMsg})
}

// placement is the result of routing one submission through candidate
// ordering and forwarding.
type placement struct {
	st         server.Status
	node       string
	accepted   bool
	code       int    // refusal status code when not accepted
	retryAfter int    // seconds; 0 = no hint
	errMsg     string // refusal detail
}

// placeJob runs one submission through the fleet: grrd's deadline
// check, then forwarding in candidate order with the per-hop deadline
// decrement of DESIGN §14 — before every forward the job's remaining
// budget is recomputed, so each node sees only what is actually left,
// and a budget that dies mid-walk stops the walk with 504. A node's 400
// ends the walk too: every node runs the same checks, so a spec one
// refuses, all refuse.
func (c *Coordinator) placeJob(spec server.JobSpec) placement {
	budget, err := server.ValidateDeadline(spec.DeadlineMs)
	if err != nil {
		return placement{code: http.StatusBadRequest, errMsg: err.Error()}
	}
	// Pin the absolute deadline at admission: deadline_ms is relative,
	// and "now" must not drift while we walk candidates.
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}

	cands := c.candidates()
	retryAfter, sawDeadline := 0, false
	for _, n := range cands {
		hop := spec
		if !deadline.IsZero() {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				sawDeadline = true
				break // the budget died while we walked; stop burning it
			}
			ms := max(remaining.Milliseconds(), 1)
			hop.DeadlineMs = &ms
		}
		body, _ := json.Marshal(hop) // a JobSpec always marshals
		p := c.forward(n, body)
		switch {
		case p.accepted:
			c.moveJob(p.st.ID, n.Name, deadline, time.Now())
			c.obs.forwarded.Inc()
			c.log.Log("fleet_forward", "job", p.st.ID, "node", n.Name)
			return p
		case p.code == http.StatusBadRequest:
			return p
		case p.code == http.StatusGatewayTimeout:
			sawDeadline = true
		}
		retryAfter = max(retryAfter, p.retryAfter)
	}
	retryAfter = max(retryAfter, 1)
	msg := "fleet: no node accepted the job"
	if len(cands) == 0 {
		msg = "fleet: no schedulable nodes"
	}
	if sawDeadline {
		// At least one refusal was the deadline itself (or the budget
		// expired mid-walk): the truthful answer is 504, not 429 — more
		// capacity would not have saved this job, more time would have.
		c.obs.deadlineRejects.Inc()
		return placement{code: http.StatusGatewayTimeout, retryAfter: retryAfter,
			errMsg: "fleet: deadline cannot be met by any node"}
	}
	c.obs.rejected.Inc()
	return placement{code: http.StatusTooManyRequests, retryAfter: retryAfter, errMsg: msg}
}

// forwardAttempts bounds transport-level tries per node while
// forwarding one job. Admission refusals (429/503) are not retried on
// the same node — the next candidate is tried.
const forwardAttempts = 3

// forward delivers one submission to one node with bounded transport
// retries: the accepted Status, or the refusal's status code (0 when
// the node never answered), Retry-After hint (seconds; 0 when none was
// offered) and error text.
func (c *Coordinator) forward(n *node, body []byte) (p placement) {
	t0 := time.Now()
	defer func() { c.obs.forwardSeconds.Observe(time.Since(t0).Seconds()) }()
	for attempt := 1; attempt <= forwardAttempts; attempt++ {
		resp, err := c.client.Post(n.Addr+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			// Transport failure: the node may be partitioned or mid-restart.
			// Back off and retry — the same classifier shape grrd applies to
			// its own transient faults.
			c.obs.forwardRetries.Inc()
			c.log.Log("fleet_forward_retry", "node", n.Name, "attempt", attempt, "err", err.Error())
			if attempt < forwardAttempts {
				c.sleep(c.backoff.Delay(attempt))
			}
			continue
		}
		defer resp.Body.Close()
		p.code = resp.StatusCode
		switch resp.StatusCode {
		case http.StatusAccepted:
			if json.NewDecoder(resp.Body).Decode(&p.st) == nil {
				p.node, p.accepted = n.Name, true
			}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable,
			http.StatusInsufficientStorage, http.StatusGatewayTimeout:
			// Load sheds (429/503/507) and deadline refusals (504) come
			// with a Retry-After and mean "try the next candidate", not
			// "the spec is bad".
			p.retryAfter, _ = strconv.Atoi(resp.Header.Get("Retry-After"))
		default:
			// A bad spec (400; placeJob ends the walk on it) or a failure.
			var e httpError
			_ = json.NewDecoder(resp.Body).Decode(&e)
			p.errMsg = e.Error
			c.log.Log("fleet_forward_refused", "node", n.Name, "code", resp.StatusCode, "err", e.Error)
		}
		return p
	}
	return p
}

// handleStatus serves one job's status: the coordinator's own result
// first (it outlives its node), then the record of a job in transit,
// then a proxy to the node that holds the job.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	e, ok := c.jobs[id]
	if ok && e.result != nil {
		st := *e.result
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
		return
	}
	if t := c.transits[id]; t != nil && t.rec != nil {
		st := t.rec.Status()
		c.mu.Unlock()
		// In the coordinator's hands between owners: report it as the
		// journal last saw it. It will be queued on a peer shortly.
		writeJSON(w, http.StatusOK, st)
		return
	}
	var addr string
	if ok {
		// A fenced owner is never asked: its local view of a job it can
		// no longer journal (typically "failed: journal fenced") is not
		// an answer, and caching it would shadow the re-homed copy.
		if n, known := c.nodes[e.node]; known && n.alive() {
			addr = n.Addr
		}
	}
	c.mu.Unlock()

	if !ok {
		writeJSON(w, http.StatusNotFound, httpError{Error: "unknown job"})
		return
	}
	if addr == "" {
		writeJSON(w, http.StatusServiceUnavailable, httpError{Error: "job owner unavailable; failover in progress"})
		return
	}
	resp, err := c.client.Get(addr + "/jobs/" + id)
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, httpError{Error: "job owner unreachable: " + err.Error()})
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		w.Write(b)
		return
	}
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		writeJSON(w, http.StatusBadGateway, httpError{Error: "bad status from owner: " + err.Error()})
		return
	}
	if st.State.Terminal() {
		c.noteTerminal(id, st)
	}
	writeJSON(w, http.StatusOK, st)
}

// handleList merges every alive node's job list with the
// coordinator's own results and the records of jobs in transit. A
// node's live view wins over the coordinator's stale copy; results of
// dead nodes appear only here.
func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	var copies []server.Status
	c.mu.Lock()
	for _, e := range c.jobs {
		if e.result != nil {
			copies = append(copies, *e.result)
		}
	}
	for _, t := range c.transits {
		if t.rec != nil {
			copies = append(copies, t.rec.Status())
		}
	}
	var addrs []string
	for _, n := range c.nodes {
		if n.alive() {
			addrs = append(addrs, n.Addr)
		}
	}
	c.mu.Unlock()

	for _, addr := range addrs {
		resp, err := c.client.Get(addr + "/jobs")
		if err != nil {
			continue
		}
		var sts []server.Status
		err = json.NewDecoder(resp.Body).Decode(&sts)
		resp.Body.Close()
		if err != nil {
			continue
		}
		copies = append(copies, sts...)
	}
	writeJSON(w, http.StatusOK, mergeJobs(copies))
}

// mergeJobs folds every copy of every job into one list sorted by ID.
// A later copy replaces an earlier one, except a handed_off copy: that
// is a donor's note that the job moved on, and it never replaces a
// copy already merged, whatever order the nodes were asked in.
func mergeJobs(copies []server.Status) []server.Status {
	byID := make(map[string]server.Status, len(copies))
	for _, st := range copies {
		if _, seen := byID[st.ID]; seen && st.State == server.StateHandedOff {
			continue
		}
		byID[st.ID] = st
	}
	out := make([]server.Status, 0, len(byID))
	for _, st := range byID {
		out = append(out, st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// stealFrom asks the node at addr to give job id up. The record is nil
// when nothing moved: the job had already finished or been handed off,
// and then the state says which.
func (c *Coordinator) stealFrom(addr, id string) (*server.Job, server.State, error) {
	resp, err := c.request(http.MethodPost, addr+"/fleet/steal/"+id, "", nil)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		rec, err := server.DecodeRecord(resp.Body)
		return rec, "", err
	case http.StatusConflict:
		var settled struct {
			State server.State `json:"state"`
		}
		err := json.NewDecoder(resp.Body).Decode(&settled)
		return nil, settled.State, err
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, "", fmt.Errorf("fleet: steal: %d %s", resp.StatusCode, bytes.TrimSpace(b))
	}
}

// offer hands rec to the first of homes that adopts it and returns that
// node. An offer whose answer is lost ends the walk with errUnanswered
// and that node: it may have adopted the record, so no other node may be
// offered it until that one settles the doubt (homes).
func (c *Coordinator) offer(rec *server.Job, homes []*node) (*node, error) {
	err := fmt.Errorf("fleet: no schedulable node for %s", rec.ID)
	for _, n := range homes {
		if err = c.handoffTo(n, rec); err == nil || errors.Is(err, errUnanswered) {
			return n, err
		}
	}
	return nil, err
}

// errUnanswered marks a handoff whose request may have reached the node
// though no answer came back.
var errUnanswered = errors.New("fleet: handoff unanswered")

// handoffTo delivers a record to node n. A 409 duplicate counts as
// success: the node already owns a live copy — exactly the state
// handoff was trying to reach. A transport error past the dial is
// errUnanswered: the node may have adopted the record.
func (c *Coordinator) handoffTo(n *node, rec *server.Job) error {
	var buf bytes.Buffer
	if err := rec.EncodeRecord(&buf); err != nil {
		return fmt.Errorf("fleet: encoding %s: %w", rec.ID, err)
	}
	resp, err := c.request(http.MethodPost, n.Addr+"/fleet/handoff", "application/x-grrdjob", &buf)
	var dial *net.OpError
	switch {
	case err != nil && errors.As(err, &dial) && dial.Op == "dial":
		return err // the request never left
	case err != nil:
		return fmt.Errorf("%w by %s: %v", errUnanswered, n.Name, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted, http.StatusConflict:
		return nil
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fleet: handoff of %s to %s: %d %s",
			rec.ID, n.Name, resp.StatusCode, bytes.TrimSpace(b))
	}
}

// request is the coordinator's own call to a node, ended by Close.
func (c *Coordinator) request(method, url, contentType string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(c.ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return c.client.Do(req)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
