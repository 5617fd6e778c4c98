package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// AgentConfig parameterizes the worker-side fleet loop.
type AgentConfig struct {
	// Node is this worker's fleet-unique name; Addr is its serving base
	// URL ("http://host:port"); Journal its journal directory as the
	// coordinator will reach it through the filesystem.
	Node, Addr, Journal string
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// Server supplies the heartbeat payload (its Load report and epoch).
	Server *server.Server
	// Every is the heartbeat cadence; it must match (or beat) the
	// coordinator's HeartbeatEvery or the node will be fenced for
	// punctuality (default 1s).
	Every time.Duration
	// Client issues the join/heartbeat requests (nil: a default client;
	// chaos tests install a faultinject.Partition transport here).
	Client *http.Client
	// DropHeartbeat, when set, is consulted before each beat: true
	// drops it on the floor. The heartbeat-loss seam — the node stays
	// healthy, the coordinator stops hearing from it.
	DropHeartbeat func() bool
	// Log receives the agent's events (join, fence notice, heartbeat
	// errors). Nil is fine.
	Log *obs.Logger
}

// Agent is the worker-side half of the fleet protocol: join the
// coordinator, then heartbeat occupancy until the context ends.
// Coordinator unavailability degrades gracefully — the agent keeps
// retrying while grrd keeps serving its local queue; nothing on this
// path can stall or fail the daemon itself.
type Agent struct {
	cfg    AgentConfig
	client *http.Client
	joined bool
	gone   bool
}

// NewAgent builds an Agent; Run starts it.
func NewAgent(cfg AgentConfig) *Agent {
	if cfg.Every <= 0 {
		cfg.Every = time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return &Agent{cfg: cfg, client: client}
}

// Run joins and heartbeats until ctx is done. It only returns on ctx
// cancellation: every failure mode (coordinator down, fenced, network
// flapping) is survivable and retried — fleet membership is best
// effort from the worker's side.
func (a *Agent) Run(ctx context.Context) {
	t := time.NewTicker(a.cfg.Every)
	defer t.Stop()
	a.tick(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			a.tick(ctx)
		}
	}
}

// tick performs one agent step: (re-)join if needed, else heartbeat.
func (a *Agent) tick(ctx context.Context) {
	if !a.joined {
		if err := a.post(ctx, "/join"); err != nil {
			// Serving standalone meanwhile; the next tick retries.
			a.cfg.Log.Log("agent_join_failed", "coordinator", a.cfg.Coordinator, "err", err.Error())
			return
		}
		a.joined = true
		a.gone = false
		a.cfg.Log.Log("agent_joined", "coordinator", a.cfg.Coordinator, "node", a.cfg.Node)
		return
	}
	if a.cfg.DropHeartbeat != nil && a.cfg.DropHeartbeat() {
		return
	}
	err := a.post(ctx, "/heartbeat")
	switch {
	case err == nil:
	case errors.Is(err, errGone):
		// Fenced: our jobs have been handed to peers. The server will
		// latch fenced on its next journal write; all the agent does is
		// stop pestering the coordinator and say why once.
		if !a.gone {
			a.gone = true
			a.cfg.Log.Log("agent_fenced", "node", a.cfg.Node)
		}
	case errors.Is(err, errUnknown):
		// Coordinator restarted and lost its view; re-join next tick.
		a.joined = false
	default:
		a.cfg.Log.Log("agent_heartbeat_failed", "err", err.Error())
	}
}

// errGone and errUnknown classify the two coordinator responses the
// agent reacts to structurally (410: fenced; 404: re-join).
var (
	errGone    = errors.New("fleet: agent fenced")
	errUnknown = errors.New("fleet: agent unknown to coordinator")
)

// post sends one join/heartbeat request.
func (a *Agent) post(ctx context.Context, path string) error {
	load := a.cfg.Server.Load()
	load.Node = a.cfg.Node
	payload := joinRequest{
		Node:    a.cfg.Node,
		Addr:    a.cfg.Addr,
		Journal: a.cfg.Journal,
		Epoch:   load.Epoch,
		Load:    load,
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		a.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusGone:
		return errGone
	case http.StatusNotFound:
		return errUnknown
	default:
		return fmt.Errorf("fleet: %s: unexpected status %d", path, resp.StatusCode)
	}
}
