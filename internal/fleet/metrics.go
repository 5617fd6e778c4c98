package fleet

import "repro/internal/obs"

// nodeStates are the health postures the per-state node gauge is
// pre-registered for (the server's health strings plus "fenced", which
// the coordinator assigns itself).
var nodeStates = [...]string{"ready", "saturated", "draining", "fenced", "disk_degraded"}

// fleetObs bundles the coordinator's registry handles; like serverObs
// it always exists — a nil Config.Metrics gets a private registry — so
// call sites never nil-check.
type fleetObs struct {
	reg *obs.Registry

	joined     *obs.Counter
	heartbeats *obs.Counter
	fenced     *obs.Counter

	forwarded      *obs.Counter
	forwardRetries *obs.Counter
	rejected       *obs.Counter
	forwardSeconds *obs.Histogram

	recoveredJobs *obs.Counter
	handoffs      *obs.Counter
	steals        *obs.Counter

	pendingGauge *obs.Gauge
	nodesByState map[string]*obs.Gauge

	// Tail-latency contract (DESIGN §14): straggler moves and
	// deadline-aware admission.
	moves           *obs.Counter
	deadlineRejects *obs.Counter
}

func newFleetObs(reg *obs.Registry) *fleetObs {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o := &fleetObs{
		reg:        reg,
		joined:     reg.Counter("grr_fleet_joins_total"),
		heartbeats: reg.Counter("grr_fleet_heartbeats_total"),
		fenced:     reg.Counter("grr_fleet_nodes_fenced_total"),

		forwarded:      reg.Counter("grr_fleet_jobs_forwarded_total"),
		forwardRetries: reg.Counter("grr_fleet_forward_retries_total"),
		rejected:       reg.Counter("grr_fleet_rejects_total"),
		forwardSeconds: reg.Histogram("grr_fleet_forward_seconds", obs.DurationBuckets()),

		recoveredJobs: reg.Counter("grr_fleet_jobs_recovered_total"),
		handoffs:      reg.Counter("grr_fleet_handoffs_total"),
		steals:        reg.Counter("grr_fleet_steals_total"),

		pendingGauge: reg.Gauge("grr_fleet_handoffs_pending"),
		nodesByState: make(map[string]*obs.Gauge, len(nodeStates)),

		moves:           reg.Counter("grr_fleet_moves_total"),
		deadlineRejects: reg.Counter("grr_deadline_rejects_total"),
	}
	for _, st := range nodeStates {
		o.nodesByState[st] = reg.Gauge(`grr_fleet_nodes{state="` + st + `"}`)
	}
	return o
}
