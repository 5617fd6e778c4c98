package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call; the program itself carries no tracing.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Run    string `json:"run"` // shared by the spans of one board, job or edit
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLayers are the ladder rungs self time is reported for, plus the
// oracles and the benchmark's own root spans, whose self time is
// harness overhead. L6 has no span: the service workload derives it
// from the nodes' job-time histograms.
var spanLayers = []string{"L3", "L4", "L5", "L6", "L7", "oracle", "bench"}

// spanLayer maps a span name to its rung.
func spanLayer(name string) string {
	switch name {
	case "core.new", "core.route", "core.reroute":
		return "L3"
	case "board.prepare", "board.prepare_edit", "stringer.string":
		return "L4"
	case "boardio.read_design", "boardio.write_routes", "verify.routed":
		return "L5"
	case "fleet.submit", "fleet.poll":
		return "L7"
	case "board.audit", "drc.check", "core.scratch_route":
		return "oracle"
	}
	return "bench"
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name, run string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: run, Start: time.Since(t.t0).Nanoseconds()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// timed runs f as span name under parent and returns its duration,
// which the untraced path measures too.
func (t *tracer) timed(name, run string, parent int, f func()) time.Duration {
	id := t.begin(name, run, parent)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes returns, per span name, the summed self time in seconds: a
// span's duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := s.End - s.Start - covered(children[s.ID], s.Start, s.End)
		out[s.Name] += float64(self) / 1e9
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerSelfTimes folds per-span self times into the ladder rungs.
func layerSelfTimes(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for name, s := range selfTimes(spans) {
		out[spanLayer(name)] += s
	}
	return out
}
