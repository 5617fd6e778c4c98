// Package core implements grr, the greedy printed circuit board router of
// the paper (Sections 5–8). It routes a list of pin-to-pin connections on
// a board.Board by applying strategies of increasing desperation to each
// connection:
//
//  1. connection sorting, so the easiest connections are attempted first
//     (Section 6);
//  2. optimal zero-via and one-via solutions under the radius parameter
//     (Section 8.1);
//  3. a generalized Lee's algorithm whose neighbors are via sites
//     reachable in one single-layer hop, searched bidirectionally under a
//     cost function (Section 8.2);
//  4. ripping up the connections blocking the most-progressed wavefront
//     point, then putting the victims back after the new connection is in
//     (Section 8.3).
//
// The outer loop (Section 8.4) makes passes over the connection list
// until everything is routed or a pass makes no progress, which is the
// symptom of an impossible problem.
package core

import (
	"fmt"
	"time"

	"repro/internal/board"
	"repro/internal/geom"
	"repro/internal/layer"
	"repro/internal/obs"
)

// Connection is one pin-to-pin connection produced by the stringer. Both
// endpoints must be pins already placed on the board (unit segments on
// every layer at via sites).
type Connection struct {
	A, B geom.Point // grid coordinates of the two pins
	Net  string     // owning net, for reporting only
	// Class tags the connection's technology ("ECL", "TTL", ...). The
	// router ignores it; the tiles package uses it to drive separated
	// routing passes.
	Class string
	// TargetDelayPs is the target delay in picoseconds for length-tuned
	// connections; zero means untuned. The router ignores it; the tuning
	// package uses it.
	TargetDelayPs float64
}

// Method records which strategy finally routed a connection.
type Method uint8

const (
	NotRouted Method = iota
	Trivial          // zero-length connection (both pins on one site)
	ZeroVia
	OneVia
	Lee
	PutBack // re-inserted unchanged after a rip-up
)

func (m Method) String() string {
	switch m {
	case Trivial:
		return "trivial"
	case ZeroVia:
		return "zerovia"
	case OneVia:
		return "onevia"
	case Lee:
		return "lee"
	case PutBack:
		return "putback"
	default:
		return "unrouted"
	}
}

// CostFn selects the Lee cost function of Section 8.2, modification 3.
type CostFn uint8

const (
	// CostDistTimesHops is the paper's production cost function:
	// distance(n, target) × hops(n, source). Each via in a path must buy
	// progress toward the target.
	CostDistTimesHops CostFn = iota
	// CostPlusOne reproduces original Lee behaviour, cost(n)=cost(p)+1:
	// minimum vias, breadth-first, slow.
	CostPlusOne
	// CostDistance is pure greed: distance(n, target) only; fast but
	// willing to spend many vias circumventing minor obstacles.
	CostDistance
)

func (c CostFn) String() string {
	switch c {
	case CostPlusOne:
		return "plus-one"
	case CostDistance:
		return "distance"
	default:
		return "dist*hops"
	}
}

// Engine selects the search engine driving the Lee flood.
type Engine uint8

const (
	// EngineClassic is the paper's wavefront, ordered by CostFn. The
	// default, bit-identical to every prior release.
	EngineClassic Engine = iota
	// EngineGoal orders the wavefront goal-oriented: accumulated path
	// cost plus an admissible, congestion-aware lower bound on the
	// remaining cost, read from the preprocessed per-layer structure of
	// lowerbound.go (DESIGN §15). It expands strictly fewer nodes than
	// classic on the Table 1 sweep; individual paths may differ, so it
	// is opt-in and algorithmic (resume refuses a snapshot taken under
	// the other engine).
	EngineGoal
)

func (e Engine) String() string {
	if e == EngineGoal {
		return "goal"
	}
	return "classic"
}

// Options tune the router. The zero value is not valid; use
// DefaultOptions.
type Options struct {
	// Radius bounds orthogonal movement on a layer, in via units
	// (Section 8.1). Typical values are 1 or 2; larger values reach more
	// vias but block more channels and are counterproductive.
	Radius int
	// Sort enables connection sorting (Section 6). Disabling it exists
	// for the E-SORT ablation.
	Sort bool
	// Cost selects the Lee cost function.
	Cost CostFn
	// Bidirectional spreads wavefronts from both ends (Section 8.2,
	// modification 2). Disabling it exists for the E-BIDIR ablation.
	Bidirectional bool
	// Engine selects the search engine ordering the Lee wavefront:
	// EngineClassic (the CostFn figure of merit, the default) or
	// EngineGoal (goal-oriented lower-bound priorities, DESIGN §15).
	// Algorithmic: it changes routed output, so resume refuses a
	// snapshot taken under a different engine.
	Engine Engine
	// RecordRegions is read by nothing: every edited design routes from
	// scratch (DESIGN §15.2).
	//
	// Deprecated: it stays until the benchmark's eco workload stops
	// setting it.
	RecordRegions bool
	// MaxRipupRounds bounds how many rip-up/retry rounds a single
	// connection may trigger before it is declared failed for this pass.
	MaxRipupRounds int
	// RipupRadius is the half-size, in via units, of the box around the
	// best wavefront point in which Obstructions selects victims.
	RipupRadius int
	// CostCapFactor abandons a Lee search once the cheapest wavefront
	// entry exceeds this multiple of the connection's Manhattan length
	// (plus a small absolute floor). Hopeless searches then fail fast
	// into rip-up instead of flooding the board, and successful paths
	// cannot wander arbitrarily. Zero disables the cap.
	CostCapFactor int
	// MaxPasses bounds the outer loop independently of the progress
	// test, as a safety net for pathological inputs.
	MaxPasses int
	// AllowOffGrid accepts connection endpoints at arbitrary grid
	// points instead of via sites only — Section 11's recommended
	// extension. Off-grid endpoints must still be plated-through pins
	// (board.PlacePinOffGrid); intermediate vias always stay on the via
	// grid.
	AllowOffGrid bool
	// IDBase offsets the segment-owner IDs of this router's connections.
	// Routing the same board in several passes (the ECL/TTL separation
	// of Section 10.2) needs distinct ID ranges per pass so rip-up never
	// confuses a previous pass's traces with its own.
	IDBase int
	// Escalate enables a final desperation phase: connections still
	// unrouted after the normal passes are retried with the radius
	// raised by one, the Lee cost cap removed and a doubled rip-up
	// budget. The handful of connections left at the end are local
	// congestion knots that the stronger (slower) settings usually
	// crack. Disabled for ablation runs that measure the plain
	// algorithm.
	Escalate bool
	// TimeBudget bounds the wall-clock time of the whole Route call.
	// When it expires the router stops at the next abort checkpoint —
	// between connections, or mid-Lee-search on a coarse expansion
	// stride — rolls back any in-flight placement, puts rip-up victims
	// back, and returns with Result.Aborted set to AbortTime. The board
	// is always left consistent. Zero means unlimited.
	TimeBudget time.Duration
	// NodeBudget caps the Lee expansions any single connection may
	// spend (summed over its rip-up rounds and retrace retries). A
	// connection that exhausts it fails for the pass — counted in
	// Metrics.FailNodeBudget — instead of flooding the board; routing
	// continues with the next connection. Zero means unlimited.
	NodeBudget int
	// Paranoid re-audits the board between passes: the full
	// board.Audit invariant sweep plus a cross-check that every routed
	// connection still owns the metal its Route records. The first
	// violation aborts routing with Result.Aborted = AbortInvariant and
	// an error naming the pass and connection. For debugging and
	// fault-injection tests; costs one board sweep per pass. Paranoid
	// also arms board.VerifyRollbacks, so every transaction rollback is
	// checked to restore a bit-identical board.
	Paranoid bool
	// CheckpointEvery, with CheckpointSink set, emits a Checkpoint after
	// every CheckpointEvery-th routing attempt, at a connection boundary
	// (never mid-placement: the router asserts no transaction is open).
	// Zero disables checkpointing; the routing fast path is then
	// untouched and bit-identical to a checkpoint-free build.
	CheckpointEvery int
	// CheckpointSink receives each emitted Checkpoint. An error aborts
	// the run with AbortCheckpoint — a router that was asked to be
	// resumable but cannot persist its progress should stop, not burn
	// hours of unrecoverable work. The sink is a function, not a path, so
	// core stays free of serialization concerns (boardio owns the codec).
	CheckpointSink func(*Checkpoint) error
	// Metrics, when set, receives live copies of the routing counters
	// plus per-phase wall-time histograms (obs.go): deltas are flushed
	// to the registry's atomic series at connection and pass
	// boundaries, never inside a search, so the hot path stays
	// allocation-free and the routed output bit-identical. Like
	// CheckpointSink this is runtime-only state: boardio snapshots do
	// not carry it, and a resumed router publishes only the work done
	// in its own process.
	Metrics *obs.Registry
}

// DefaultOptions returns the configuration used for all Table 1 runs.
func DefaultOptions() Options {
	return Options{
		Radius:         1,
		Sort:           true,
		Cost:           CostDistTimesHops,
		Bidirectional:  true,
		MaxRipupRounds: 24,
		RipupRadius:    2,
		CostCapFactor:  8,
		MaxPasses:      8,
		Escalate:       true,
	}
}

// ClampTimeBudget lowers TimeBudget to remaining when that is tighter
// (or when no budget was set at all). It is the last hop of the
// service layer's deadline propagation: a job admitted with an
// end-to-end deadline has, by the time a worker picks it up, only the
// remaining slice of it to spend, and the router's own budget/abort
// machinery (AbortTime) is what enforces the cut. remaining <= 0 is
// ignored — refusing an already-expired job is the caller's admission
// decision, not a routing option.
func (o *Options) ClampTimeBudget(remaining time.Duration) {
	if remaining <= 0 {
		return
	}
	if o.TimeBudget <= 0 || remaining < o.TimeBudget {
		o.TimeBudget = remaining
	}
}

// Metrics aggregates the counters behind Table 1 and the in-text claims.
type Metrics struct {
	Connections int
	Routed      int
	Failed      int

	ByMethod [PutBack + 1]int // indexed by Method

	RipUps        int // connections ripped up (Table 1 "rip ups")
	PutBacks      int // victims re-inserted unchanged
	ReRouted      int // victims that needed full re-routing
	ViasAdded     int // vias drilled (excludes pins)
	LeeExpansions int // wavefront points expanded
	LeeBlocked    int // Lee searches that exhausted a wavefront

	// Failure reasons (per failed routeOne attempt).
	FailNoVictims  int // blocked with nothing rippable nearby
	FailRounds     int // rip-up round limit exhausted
	FailNodeBudget int // Options.NodeBudget exhausted
	TraceCalls     int
	ViasCalls      int
	Passes         int
	WireLength     int // total grid cells of placed trace segments
}

// OptimalShare returns the fraction of routed connections completed by
// the optimal strategies (trivial, zero-via, one-via, put-back); the
// paper wants this around 90% for a feasible problem.
func (m Metrics) OptimalShare() float64 {
	if m.Routed == 0 {
		return 0
	}
	opt := m.ByMethod[Trivial] + m.ByMethod[ZeroVia] + m.ByMethod[OneVia] + m.ByMethod[PutBack]
	return float64(opt) / float64(m.Routed)
}

// LeeShare returns the fraction of routed connections that needed Lee's
// algorithm (Table 1 "% lee").
func (m Metrics) LeeShare() float64 {
	if m.Routed == 0 {
		return 0
	}
	return float64(m.ByMethod[Lee]) / float64(m.Routed)
}

// ViasPerConn returns drilled vias per routed connection (Table 1
// "vias").
func (m Metrics) ViasPerConn() float64 {
	if m.Routed == 0 {
		return 0
	}
	return float64(m.ViasAdded) / float64(m.Routed)
}

// Route is the materialized realization of one connection.
type Route struct {
	Method Method
	// Segs holds every trace segment placed for the connection, with its
	// layer index.
	Segs []PlacedSeg
	// Vias holds every via drilled for the connection.
	Vias []board.PlacedVia

	// tx is the open transaction journaling this route's placements while
	// it is still speculative. Committing the route (commit) seals it;
	// abandoning the route (rollback) undoes it. Always nil on a route
	// stored in Router.routes.
	tx *board.Tx
}

// PlacedSeg pairs a live channel segment with its layer.
type PlacedSeg struct {
	Layer int
	Seg   *layer.Segment
}

// AbortReason says why a Route call stopped before running the full
// algorithm. AbortNone means it ran to its natural end (which may still
// leave connections unrouted on an infeasible board).
type AbortReason uint8

const (
	AbortNone       AbortReason = iota
	AbortTime                   // Options.TimeBudget expired
	AbortCancelled              // the RouteContext context was cancelled
	AbortInvariant              // a Paranoid audit found a broken invariant
	AbortCheckpoint             // Options.CheckpointSink returned an error
)

func (a AbortReason) String() string {
	switch a {
	case AbortTime:
		return "time budget exhausted"
	case AbortCancelled:
		return "cancelled"
	case AbortInvariant:
		return "invariant violated"
	case AbortCheckpoint:
		return "checkpoint write failed"
	default:
		return "none"
	}
}

// Result reports the outcome of a Route call.
type Result struct {
	Metrics Metrics
	// FailedConns lists the indices (into the input slice) of
	// connections left unrouted.
	FailedConns []int
	// Aborted is non-zero when routing stopped early (budget exhausted,
	// context cancelled, paranoid audit failure). The metrics then
	// describe the partial run; every connection the router did place is
	// fully realized and the board is consistent.
	Aborted AbortReason
	// Invariant carries the detail of an AbortInvariant stop: which
	// pass's audit failed and on what.
	Invariant error
}

// Complete reports whether the run finished naturally with every
// connection routed. An aborted run is never complete, even if the
// abort arrived after the last connection.
func (r Result) Complete() bool { return len(r.FailedConns) == 0 && r.Aborted == AbortNone }

func (r Result) String() string {
	m := r.Metrics
	s := fmt.Sprintf("routed %d/%d (zerovia %d, onevia %d, lee %d, putback %d, trivial %d), ripups %d, vias %d, passes %d",
		m.Routed, m.Connections, m.ByMethod[ZeroVia], m.ByMethod[OneVia], m.ByMethod[Lee],
		m.ByMethod[PutBack], m.ByMethod[Trivial], m.RipUps, m.ViasAdded, m.Passes)
	if r.Aborted != AbortNone {
		s += ", aborted: " + r.Aborted.String()
	}
	return s
}
