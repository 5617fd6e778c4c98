package faultinject

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
)

// ErrPartitioned is the failure a partitioned request surfaces. It
// reports itself as a timeout so callers that classify network errors
// (retry loops, failure detectors) treat it exactly like a real
// unreachable peer: retryable, not a protocol error. A blocked host's
// requests fail as a *net.OpError dial that wraps it; a lost reply
// surfaces it bare.
var ErrPartitioned = errors.New("faultinject: network partition")

// partitionError wraps ErrPartitioned for one host and satisfies the
// net.Error shape (Timeout/Temporary) without importing net.
type partitionError struct{ host string }

func (e *partitionError) Error() string {
	return fmt.Sprintf("faultinject: host %s partitioned", e.host)
}
func (e *partitionError) Unwrap() error   { return ErrPartitioned }
func (e *partitionError) Timeout() bool   { return true }
func (e *partitionError) Temporary() bool { return true }

// Partition is the fleet tests' network-failure seam: a mutable set of
// unreachable hosts and a separate set of heartbeat-muted nodes,
// consulted by the two places fleet traffic crosses the (simulated)
// network.
//
//   - RoundTripper wraps an http.Transport so requests to a blocked
//     host fail with ErrPartitioned instead of leaving the process —
//     both directions of job traffic (forward, steal, handoff) go
//     through it. A host can also lose only its replies: the request
//     arrives and is acted on, and the caller sees ErrPartitioned, as
//     when a response is dropped in transit.
//   - HeartbeatDropped is the asymmetric case: the node is healthy and
//     serving, but its heartbeats never arrive. That is the failure
//     mode that distinguishes "dead" from "unreachable" — exactly what
//     a fencing failover must handle without running the job twice.
//
// All methods are safe for concurrent use; chaos tests flip hosts in
// and out while traffic flows.
type Partition struct {
	mu      sync.Mutex
	blocked map[string]bool
	lost    map[string]bool // replies dropped
	muted   map[string]bool // heartbeats dropped
}

// NewPartition builds an empty partition: every host reachable, every
// heartbeat delivered.
func NewPartition() *Partition {
	return &Partition{blocked: make(map[string]bool), lost: make(map[string]bool),
		muted: make(map[string]bool)}
}

// Block makes every request to host (as it appears in the request URL,
// "addr:port") fail with ErrPartitioned.
func (p *Partition) Block(host string) {
	p.mu.Lock()
	p.blocked[host] = true
	p.mu.Unlock()
}

// LoseReplies lets requests to host arrive, but drops every reply: the
// host acts on the request and the caller sees ErrPartitioned.
func (p *Partition) LoseReplies(host string) {
	p.mu.Lock()
	p.lost[host] = true
	p.mu.Unlock()
}

// Heal restores reachability of host, replies included.
func (p *Partition) Heal(host string) {
	p.mu.Lock()
	delete(p.blocked, host)
	delete(p.lost, host)
	p.mu.Unlock()
}

// Blocked reports whether host is currently unreachable.
func (p *Partition) Blocked(host string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blocked[host]
}

// MuteHeartbeats drops node's heartbeats while leaving its job traffic
// intact — the asymmetric partition that makes a live node look dead.
func (p *Partition) MuteHeartbeats(node string) {
	p.mu.Lock()
	p.muted[node] = true
	p.mu.Unlock()
}

// HeartbeatDropped reports whether node's heartbeats are being dropped.
// The fleet agent consults it (through its heartbeat seam) before each
// send; a nil *Partition drops nothing, so production wiring passes nil.
func (p *Partition) HeartbeatDropped(node string) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.muted[node]
}

// RoundTripper wraps base (nil: http.DefaultTransport) so requests to
// blocked hosts fail without touching the network. The check runs at
// request time, so healing a host immediately restores it.
func (p *Partition) RoundTripper(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &partitionTransport{p: p, base: base}
}

type partitionTransport struct {
	p    *Partition
	base http.RoundTripper
}

func (t *partitionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.p.Blocked(req.URL.Host) {
		// A failed dial, as a real unreachable host gives: the request
		// never left, which a caller may rely on.
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: &partitionError{host: req.URL.Host}}
	}
	resp, err := t.base.RoundTrip(req)
	t.p.mu.Lock()
	dropped := t.p.lost[req.URL.Host]
	t.p.mu.Unlock()
	if err != nil || !dropped {
		return resp, err
	}
	resp.Body.Close()
	return nil, &partitionError{host: req.URL.Host}
}
