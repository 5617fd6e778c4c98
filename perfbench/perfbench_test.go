package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/server"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 20, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i) // descending input: tail must sort
		}
		v, pct := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailMinBeyond {
			t.Errorf("n=%d: %d samples beyond the tail %v, want %d", n, beyond, v, tailMinBeyond)
		}
		if want := 100 * float64(n-tailMinBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: tail percentile %v, want %v", n, pct, want)
		}
		if s := summarize(xs); s.n != n {
			t.Errorf("n=%d: summary reports %d samples", n, s.n)
		}
	}
	if v, pct := tail([]float64{3, 1, 2}); v != 3 || pct != 100 {
		t.Errorf("too few samples: got %v at p%v, want the maximum at p100", v, pct)
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) {
			t.Errorf("%q breaks the metric-name grammar", d.name)
		}
		if seen[d.name] {
			t.Errorf("%q is defined twice", d.name)
		}
		seen[d.name] = true
		if !unit.MatchString(d.unit) {
			t.Errorf("%s: bad unit %q", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("%s: direction %q is neither higher nor lower", d.name, d.better)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", "x#"} {
		if name.MatchString(bad) {
			t.Errorf("grammar accepts %q", bad)
		}
	}
	setup, err := lookupMetric(endToEnd, "setup_s")
	if err != nil || setup.unit != "s" || setup.better != "lower" {
		t.Fatalf("setup_s must be an end-to-end metric in s, lower better: %+v %v", setup, err)
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 || d.bound > setup.bound {
			t.Errorf("%s: bound %v outside (0, setup_s's %v]", d.name, d.bound, setup.bound)
		}
	}
	for _, d := range perLayer {
		if d.on != "all" && workloads[d.on] == nil {
			t.Errorf("%s: moves on unknown workload %q", d.name, d.on)
		}
		if _, err := lookupMetric(endToEnd, d.moves); d.moves != "none" && err != nil {
			t.Errorf("%s: moves unknown end-to-end metric %q", d.name, d.moves)
		}
	}
}

// benchmarkFile is BENCHMARK.json's layout.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		if workloads[w.Name] == nil || w.Why == "" {
			t.Errorf("workload %q: unknown or without a reason", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the catalogue %d", len(f.EndToEnd), len(endToEnd))
	}
	for _, m := range f.EndToEnd {
		d, err := lookupMetric(endToEnd, m.Name)
		if err != nil || d.unit != m.Unit || d.better != m.Better || d.bound != m.Bound {
			t.Errorf("end-to-end %+v differs from the catalogue's %+v (%v)", m, d, err)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the catalogue %d", len(f.PerLayer), len(perLayer))
	}
	for _, m := range f.PerLayer {
		d, err := lookupMetric(perLayer, m.Name)
		if err != nil || d.unit != m.Unit || d.better != m.Better {
			t.Errorf("per-layer %+v differs from the catalogue's %+v (%v)", m, d, err)
		}
	}
}

// TestEveryMetricEmitted runs each workload on shrunken boards, untraced
// and traced, and checks that every end-to-end metric comes out of every
// workload and every per-layer metric out of the workload it names.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("routes boards")
	}
	traced := map[string]map[string]float64{}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			// Service jobs are already Scale(3); smaller boards than that
			// repeat designs across seeds, which the route cache serves.
			scale := 2
			if name == "service" {
				scale = 1
			}
			cfg := config{workload: name, seed: 3, seconds: time.Second, trace: trace, outDir: t.TempDir(), scale: scale}
			rep, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if rep.failed > 0 || rep.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d failed: %v", name, trace, rep.failed, rep.attempted, rep.problems)
			}
			if !trace {
				for _, d := range endToEnd {
					if v, ok := rep.metrics[d.name]; !ok || v == 0 {
						t.Errorf("%s: end-to-end %s missing or 0", name, d.name)
					}
				}
				continue
			}
			traced[name] = rep.metrics
			if len(rep.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
		}
	}
	for _, d := range perLayer {
		for name, m := range traced {
			if d.on != "all" && d.on != name {
				continue
			}
			if _, ok := m[d.name]; !ok {
				t.Errorf("%s: per-layer %s not reported", name, d.name)
			}
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "board", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.route", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "verify.routed", Start: 40, End: 70}, // overlaps its sibling
		{ID: 4, Parent: 2, Name: "core.new", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{"board": 40e-9, "core.route": 30e-9, "verify.routed": 30e-9, "core.new": 10e-9} {
		if got := self[name]; got < want-1e-15 || got > want+1e-15 {
			t.Errorf("%s self time %v, want %v", name, got, want)
		}
	}
}

// TestFailPctCountsRefusalsAndOracleFailures drives the service client
// against a stand-in coordinator that refuses one job with 429 and
// finishes another with a fingerprint that differs from the reference.
func TestFailPctCountsRefusalsAndOracleFailures(t *testing.T) {
	yes := true
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var code int
		var st server.Status
		switch r.URL.Path {
		case "/jobs":
			if r.Header.Get("X-Test") == "refuse" {
				code = http.StatusTooManyRequests
			} else {
				code, st = http.StatusAccepted, server.Status{ID: "job-n1-000000", State: server.StateQueued}
			}
		default:
			code, st = http.StatusOK, server.Status{ID: "job-n1-000000", State: server.StateDone, AuditOK: &yes, Fingerprint: "00000000000000aa"}
		}
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(st)
	}))
	defer coord.Close()

	s := &service{up: &topology{coordURL: coord.URL}, client: coord.Client(),
		stream: []svcJob{{wantFP: "00000000000000aa"}, {wantFP: "00000000000000bb"}}}
	var res clientResult
	s.client1(nil, time.Now().Add(time.Minute), &res)
	if res.attempted != 2 || len(res.problems) != 1 || len(res.latMs) != 1 {
		t.Fatalf("oracle failure: attempted %d, problems %v, %d done", res.attempted, res.problems, len(res.latMs))
	}

	s.next.Store(0)
	s.client.Transport = headerTransport{"X-Test", "refuse"}
	res = clientResult{}
	s.client1(nil, time.Now().Add(time.Minute), &res)
	if res.attempted != 2 || len(res.problems) != 2 {
		t.Fatalf("refusals: attempted %d, problems %v", res.attempted, res.problems)
	}
	if got := failPct(4, 3); got != 75 {
		t.Errorf("failPct(4, 3) = %v, want 75", got)
	}
}

// headerTransport adds one header to every request.
type headerTransport struct{ key, value string }

func (h headerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(h.key, h.value)
	return http.DefaultTransport.RoundTrip(r)
}
