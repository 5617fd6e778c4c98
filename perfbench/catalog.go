package main

import "fmt"

// metricDef is one metric the benchmark reports. End-to-end metrics
// carry a regression bound (the share of the parent's median by which
// the metric may worsen); per-layer metrics instead name the end-to-end
// metric they should move and the workload that shows it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	moves, on          string  // per-layer only; moves "none" for oracle costs
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; what one operation is depends on the
// workload (a sweep of nine boards for table1, a job for service, an
// edit for eco).
var endToEnd = []metricDef{
	// Timings get the widest bound the gate allows: on the shared 2-CPU
	// host the same run reads up to a quarter slower from one minute to
	// the next.
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "routed_pct", unit: "%", better: "higher", bound: 0.02},
	{name: "vias_per_conn", unit: "vias", better: "lower", bound: 0.1},
	{name: "wire_per_conn", unit: "cells", better: "lower", bound: 0.1},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.1},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

// table1Boards are the Table 1 rows in the paper's order; each gets its
// own core.route_s row.
var table1Boards = []string{"kdj11-2L", "nmc-4L", "dpath", "coproc", "kdj11-4L", "icache", "nmc-6L", "dcache", "tna"}

// perLayer are the traced run's metrics, bottom layer first. A layer a
// workload leaves idle reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	l := func(name, unit, better, moves, on string) metricDef {
		return metricDef{name: name, unit: unit, better: better, moves: moves, on: on}
	}
	defs := []metricDef{
		// L1: channel list and via map.
		l("viamap.probes", "count", "lower", "ops_per_s", "table1"),
		l("viamap.updates", "count", "lower", "ops_per_s", "table1"),
		l("viamap.probes_per_update", "ratio", "lower", "ops_per_s", "table1"),
		l("board.mutations", "count", "lower", "ops_per_s", "table1"),
		l("layer.segments", "count", "lower", "wire_per_conn", "table1"),
		// L2: single-layer algorithms.
		l("sla.trace_calls", "count", "lower", "ops_per_s", "table1"),
		l("sla.via_queries", "count", "lower", "ops_per_s", "table1"),
		// L3: strategy ladder, Lee search, rip-up.
		l("core.new_s", "s", "lower", "setup_s", "table1"),
		l("core.route_s", "s", "lower", "ops_per_s", "table1"),
	}
	for _, b := range table1Boards {
		defs = append(defs, l("core.route_s."+b, "s", "lower", "ops_per_s", "table1"))
	}
	defs = append(defs,
		l("core.zero_via_s", "s", "lower", "ops_per_s", "table1"),
		l("core.one_via_s", "s", "lower", "ops_per_s", "table1"),
		l("core.lee_s", "s", "lower", "ops_per_s", "table1"),
		l("core.put_back_s", "s", "lower", "ops_per_s", "table1"),
		l("core.lee_expansions", "count", "lower", "ops_per_s", "table1"),
		l("core.lee_blocked", "count", "lower", "ops_per_s", "table1"),
		l("core.rip_ups", "count", "lower", "ops_per_s", "table1"),
		l("core.put_backs", "count", "lower", "ops_per_s", "table1"),
		l("core.rerouted", "count", "lower", "ops_per_s", "table1"),
		l("core.passes", "count", "lower", "ops_per_s", "table1"),
		l("core.optimal_share", "ratio", "higher", "ops_per_s", "table1"),
		l("core.expansions_per_lee_conn", "count", "lower", "ops_per_s", "table1"),
		l("core.alloc_mb", "MB", "lower", "alloc_mb", "table1"),
		l("core.fail_no_victims", "count", "lower", "routed_pct", "table1"),
		l("core.fail_rounds", "count", "lower", "routed_pct", "table1"),
		l("core.fail_node_budget", "count", "lower", "routed_pct", "table1"),
		// L3: goal-engine lower bound and incremental re-routing.
		l("core.reroute_s", "s", "lower", "latency_p50_ms", "eco"),
		l("core.incremental_adopted", "count", "higher", "latency_p50_ms", "eco"),
		l("core.incremental_rerouted", "count", "lower", "latency_p50_ms", "eco"),
		l("core.incremental_adopt_ratio", "ratio", "higher", "latency_p50_ms", "eco"),
		l("core.scratch_route_s", "s", "lower", "none", "eco"),
		l("core.incremental_speedup", "ratio", "higher", "latency_p50_ms", "eco"),
		l("core.lb_builds", "count", "lower", "latency_p50_ms", "eco"),
		l("core.lb_queries", "count", "lower", "latency_p50_ms", "eco"),
		l("core.lb_via_bound_hits", "count", "higher", "latency_p50_ms", "eco"),
		// L4: one whole board.
		l("board.prepare_s", "s", "lower", "setup_s", "table1"),
		l("board.prepare_edit_s", "s", "lower", "latency_p50_ms", "eco"),
		l("stringer.string_s", "s", "lower", "setup_s", "table1"),
		// L5: .brd to .rte.
		l("boardio.read_design_s", "s", "lower", "setup_s", "table1"),
		l("verify.routed_s", "s", "lower", "ops_per_s", "table1"),
		l("boardio.write_routes_s", "s", "lower", "ops_per_s", "table1"),
		l("boardio.rte_bytes", "bytes", "lower", "ops_per_s", "table1"),
		// Oracle cost: moves no end-to-end metric.
		l("drc.check_s", "s", "lower", "none", "table1"),
		l("drc.violations", "count", "lower", "none", "table1"),
		l("board.audit_s", "s", "lower", "none", "table1"),
		// L6: grrd server.
		l("server.new_s", "s", "lower", "setup_s", "service"),
		l("server.queue_wait_s", "s", "lower", "latency_tail_ms", "service"),
		l("server.attempt_s", "s", "lower", "latency_p50_ms", "service"),
		l("server.job_s", "s", "lower", "latency_p50_ms", "service"),
		l("server.journal_writes", "count", "lower", "ops_per_s", "service"),
		l("server.journal_writes_per_job", "count", "lower", "ops_per_s", "service"),
		l("server.disk_write_ms", "ms", "lower", "ops_per_s", "service"),
		l("server.retries", "count", "lower", "ops_per_s", "service"),
		// L7: fleet coordinator.
		l("fleet.join_s", "s", "lower", "setup_s", "service"),
		l("fleet.submit_ms", "ms", "lower", "latency_p50_ms", "service"),
		l("fleet.forward_s", "s", "lower", "latency_p50_ms", "service"),
		l("fleet.placement_skew", "ratio", "lower", "latency_tail_ms", "service"),
		l("fleet.forward_retries", "count", "lower", "ops_per_s", "service"),
		l("fleet.rejects", "count", "lower", "ops_per_s", "service"),
		l("fleet.cache_hits", "count", "higher", "latency_p50_ms", "service"),
	)
	// Self time per layer, from the benchmark's spans around layer calls
	// (L3-L7) and from a CPU profile of the traced pass, which is the only
	// outside view of the layers below core's public functions.
	for _, layer := range spanLayers {
		defs = append(defs, l("self_s."+layer, "s", "lower", "ops_per_s", busiestOn(layer)))
	}
	for _, pkg := range profilePackages {
		defs = append(defs, l("cpu_s."+pkg, "s", "lower", "ops_per_s", busiestOn(pkg)))
	}
	defs = append(defs, l("trace_overhead_pct", "%", "lower", "none", "all"))
	return defs
}

// busiestOn names the workload that loads a ladder rung or package
// most; the service layers are idle elsewhere.
func busiestOn(layer string) string {
	switch layer {
	case "L6", "L7", "server", "fleet":
		return "service"
	case "bench", "repo", "runtime", "other":
		return "all"
	}
	return "table1"
}

// lookupMetric returns the definition of name among defs.
func lookupMetric(defs []metricDef, name string) (metricDef, error) {
	for _, d := range defs {
		if d.name == name {
			return d, nil
		}
	}
	return metricDef{}, fmt.Errorf("metric %q is not in the catalogue", name)
}
