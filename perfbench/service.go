package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/boardio"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/stringer"
	"repro/internal/workload"
)

const (
	serviceClients = 2
	serviceNodes   = 2
	// servicePoll is how often a client asks whether its job is done.
	servicePoll = 5 * time.Millisecond
	// serviceJobsPerSecond sizes the pre-generated job stream; a stream
	// that runs out ends the pass early, which the report notes.
	serviceJobsPerSecond = 25
	// serviceSetups is how many times the topology is started; set-up
	// takes milliseconds, so its median needs several.
	serviceSetups = 5
)

// service is the deployed topology in one process: a fleet coordinator
// on loopback fronting two grrd nodes with one worker each, journals on
// disk under the checkout, hedging off. Two closed-loop clients submit
// a job, poll it to a terminal state, then submit the next.
type service struct {
	dir    string
	traced bool
	seed   int64
	stream []svcJob
	next   atomic.Int64
	up     *topology
	setups []float64
	// newS and joinS are the server.New and join-to-ready times of each
	// set-up.
	newS, joinS []float64
	client      *http.Client
}

// svcJob is one submission and the fingerprint an in-process route of
// the same design produced during set-up.
type svcJob struct {
	body   []byte
	wantFP string
}

func newService(cfg config, rep *report) (bench, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "service-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, traced: cfg.trace, seed: cfg.seed,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}, Timeout: time.Minute}}
	n := int(cfg.seconds.Seconds()) * serviceJobsPerSecond
	if s.stream, err = jobStream(cfg.seed, cfg.scale, n); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < serviceSetups; i++ {
		if s.up != nil {
			s.up.stop()
		}
		start := time.Now()
		up, newS, joinS, err := startTopology(dir, cfg.trace, cfg.seed)
		if err != nil {
			s.close()
			return nil, err
		}
		s.setups = append(s.setups, time.Since(start).Seconds())
		s.newS = append(s.newS, newS)
		s.joinS = append(s.joinS, joinS)
		s.up = up
	}
	rep.note("service: %d nodes x 1 worker, %d closed-loop clients, %d-job stream, journals on %s", serviceNodes, serviceClients, len(s.stream), fsType(dir))
	return s, nil
}

// jobStream draws n distinct Table 1 designs at Scale(3) and routes each
// in-process for its reference fingerprint.
func jobStream(seed int64, scale, n int) ([]svcJob, error) {
	specs := workload.Table1Specs()
	jobs := make([]svcJob, n)
	err := parallel(n, func(i int) error {
		spec := specs[i%len(specs)].Scale(3 * scale)
		spec.Seed = specSeed(seed, int64(1000+i))
		var err error
		jobs[i], err = svcJobFor(spec)
		return err
	})
	return jobs, err
}

func svcJobFor(spec workload.Spec) (svcJob, error) {
	brd, err := designText(spec)
	if err != nil {
		return svcJob{}, err
	}
	d, err := boardio.ReadDesign(bytes.NewReader(brd))
	if err != nil {
		return svcJob{}, err
	}
	run, err := experiment.RouteDesign(d, core.DefaultOptions(), stringer.Options{})
	if err != nil {
		return svcJob{}, err
	}
	body, err := json.Marshal(server.JobSpec{Design: string(brd)})
	if err != nil {
		return svcJob{}, err
	}
	return svcJob{body: body, wantFP: fmt.Sprintf("%016x", run.Board.Fingerprint())}, nil
}

// topology is a running coordinator and its nodes.
type topology struct {
	coordURL string
	coord    *fleet.Coordinator
	coordHS  *http.Server
	nodes    []*node
}

type node struct {
	url       string
	srv       *server.Server
	hs        *http.Server
	stopAgent context.CancelFunc
	agentDone chan struct{}
}

// serve starts an HTTP server for h on a loopback port.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// startTopology boots the coordinator and the nodes and waits until
// every node has joined and reports ready. Registries are armed only
// for the traced run.
func startTopology(dir string, traced bool, seed int64) (t *topology, newS, joinS float64, err error) {
	arm := func() *obs.Registry {
		if traced {
			return obs.NewRegistry()
		}
		return nil
	}
	t = &topology{coord: fleet.New(fleet.Config{Metrics: arm()})}
	if t.coordHS, t.coordURL, err = serve(t.coord.Handler()); err != nil {
		t.coord.Close()
		return nil, 0, 0, err
	}
	for i := 0; i < serviceNodes; i++ {
		name := fmt.Sprintf("n%d", i+1)
		jdir, err := os.MkdirTemp(dir, "journal-"+name+"-")
		if err != nil {
			t.stop()
			return nil, 0, 0, err
		}
		start := time.Now()
		srv, err := server.New(server.Config{
			NodeName: name, Workers: 1, JournalDir: jdir, RetrySeed: seed + int64(i) + 1,
			Metrics: arm(), ClaimCommit: fleet.ClaimClient(t.coordURL, name, nil),
		})
		newS += time.Since(start).Seconds()
		if err != nil {
			t.stop()
			return nil, 0, 0, err
		}
		n := &node{srv: srv, agentDone: make(chan struct{})}
		t.nodes = append(t.nodes, n)
		if n.hs, n.url, err = serve(srv.Handler()); err != nil {
			t.stop()
			return nil, 0, 0, err
		}
		agent := fleet.NewAgent(fleet.AgentConfig{Node: name, Addr: n.url, Journal: jdir, Coordinator: t.coordURL, Server: srv})
		var ctx context.Context
		ctx, n.stopAgent = context.WithCancel(context.Background())
		go func() {
			defer close(n.agentDone)
			agent.Run(ctx)
		}()
	}
	start := time.Now()
	for !t.ready() {
		if time.Since(start) > 30*time.Second {
			t.stop()
			return nil, 0, 0, errors.New("nodes did not join within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	return t, newS, time.Since(start).Seconds(), nil
}

func (t *topology) ready() bool {
	ready := 0
	for _, n := range t.coord.Nodes() {
		if !n.Fenced && n.Load.Health == server.HealthReady {
			ready++
		}
	}
	return ready == serviceNodes
}

// stop drains every node, shuts every HTTP server and waits for the
// agents to exit.
func (t *topology) stop() {
	for _, n := range t.nodes {
		if n.stopAgent != nil {
			n.stopAgent()
			<-n.agentDone
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		n.srv.Drain(ctx)
		if n.hs != nil {
			n.hs.Shutdown(ctx)
		}
		cancel()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.coordHS.Shutdown(ctx)
	cancel()
	t.coord.Close()
}

func (s *service) setupSeconds() []float64 { return s.setups }

func (s *service) close() {
	if s.up != nil {
		s.up.stop()
	}
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// clientResult is what one closed-loop client saw.
type clientResult struct {
	attempted                 int
	problems                  []string
	latMs, submitMs           []float64
	ids                       []string
	routed, conns, vias, wire int
	witness                   map[string]string
}

func (s *service) pass(tr *tracer, budget time.Duration, rep *report) (*passResult, error) {
	var before []map[string]float64
	if s.traced {
		var err error
		if before, err = s.scrapeAll(); err != nil {
			return nil, err
		}
	}
	a0 := allocBytes()
	start := time.Now()
	deadline := start.Add(budget)
	results := make([]clientResult, serviceClients)
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func(res *clientResult) {
			defer wg.Done()
			s.client1(tr, deadline, res)
		}(&results[c])
	}
	wg.Wait()
	elapsed := time.Since(start)
	alloc := allocBytes() - a0

	p := &passResult{witness: map[string]string{}, layer: map[string]float64{}}
	var ids []string
	var submitMs []float64
	for _, r := range results {
		rep.attempted += r.attempted
		for _, pr := range r.problems {
			rep.fail("%s", pr)
		}
		p.latMs = append(p.latMs, r.latMs...)
		submitMs = append(submitMs, r.submitMs...)
		ids = append(ids, r.ids...)
		p.routed += r.routed
		p.conns += r.conns
		p.vias += r.vias
		p.wire += r.wire
		for k, v := range r.witness {
			p.witness[k] = v
		}
	}
	if s.next.Load() >= int64(len(s.stream)) {
		rep.note("service: the job stream ran out after %.1fs", elapsed.Seconds())
	}
	jobs := float64(max(len(ids), 1))
	p.opsPerS = float64(len(ids)) / elapsed.Seconds()
	p.allocMB = float64(alloc) / jobs / (1 << 20)

	p.layer["server.new_s"] = median(s.newS)
	p.layer["fleet.join_s"] = median(s.joinS)
	p.layer["fleet.submit_ms"] = median(submitMs)
	p.layer["fleet.placement_skew"] = placementSkew(ids)
	p.ops = jobs
	if s.traced {
		after, err := s.scrapeAll()
		if err != nil {
			return nil, err
		}
		s.layerFromScrapes(p.layer, before, after, jobs)
	}
	if tr != nil {
		// The nodes' job time is L6's; the rest of what the clients
		// waited is the coordinator's and the loopback's.
		var clientS float64
		for _, sp := range tr.spans {
			if spanLayer(sp.Name) == "L7" {
				clientS += float64(sp.End-sp.Start) / 1e9
			}
		}
		p.layer["self_s.L6"] = p.layer["server.job_s"]
		p.layer["self_s.L7"] = clientS/jobs - p.layer["server.job_s"]
	}
	return p, nil
}

// client1 is one closed-loop client: submit, poll to a terminal state,
// check the result, repeat until the deadline.
func (s *service) client1(tr *tracer, deadline time.Time, res *clientResult) {
	res.witness = map[string]string{}
	for time.Now().Before(deadline) {
		i := s.next.Add(1) - 1
		if i >= int64(len(s.stream)) {
			return
		}
		job := s.stream[i]
		run := fmt.Sprintf("job/%d", i)
		res.attempted++
		root := tr.begin("job", run, 0)
		t0 := time.Now()
		var st server.Status
		var code int
		var err error
		submit := tr.timed("fleet.submit", run, root, func() {
			code, err = s.call(http.MethodPost, s.up.coordURL+"/jobs", job.body, &st)
		})
		switch {
		case err == nil && code == http.StatusOK:
			err = errors.New("answered from the route cache; the stream's designs must be distinct")
		case err == nil && code != http.StatusAccepted:
			err = fmt.Errorf("submit refused with %d", code)
		}
		if err == nil {
			tr.timed("fleet.poll", run, root, func() {
				for !st.State.Terminal() && err == nil {
					time.Sleep(servicePoll)
					code, err = s.call(http.MethodGet, s.up.coordURL+"/jobs/"+st.ID, nil, &st)
					if err == nil && code != http.StatusOK {
						err = fmt.Errorf("status %d", code)
					}
				}
			})
		}
		lat := time.Since(t0)
		tr.end(root)
		switch {
		case err != nil:
			res.problems = append(res.problems, fmt.Sprintf("%s: %v", run, err))
			continue
		case st.State != server.StateDone || st.AuditOK == nil || !*st.AuditOK:
			res.problems = append(res.problems, fmt.Sprintf("%s %s: ended %s (%s)", run, st.ID, st.State, st.Error))
			continue
		case st.Fingerprint != job.wantFP:
			res.problems = append(res.problems, fmt.Sprintf("%s %s: fingerprint %s, in-process route %s", run, st.ID, st.Fingerprint, job.wantFP))
			continue
		}
		res.latMs = append(res.latMs, 1000*lat.Seconds())
		res.submitMs = append(res.submitMs, 1000*submit.Seconds())
		res.ids = append(res.ids, st.ID)
		res.witness[run] = st.Fingerprint
		if m := st.Metrics; m != nil {
			res.routed += m.Routed
			res.conns += m.Connections
			res.vias += m.ViasAdded
			res.wire += m.WireLength
		}
	}
}

// call sends one request and decodes a JSON answer into out.
func (s *service) call(method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// placementSkew is the most jobs any node ran over the fewest, read from
// the node-namespaced job IDs (job-<node>-NNNNNN).
func placementSkew(ids []string) float64 {
	per := map[string]int{}
	for _, id := range ids {
		rest := strings.TrimPrefix(id, "job-")
		if i := strings.LastIndexByte(rest, '-'); i >= 0 {
			per[rest[:i]]++
		}
	}
	lo, hi := 0, 0
	for _, n := range per {
		if lo == 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
	}
	if len(per) < serviceNodes || lo == 0 {
		return float64(hi) // a node that ran nothing: skew is unbounded, report the load
	}
	return float64(hi) / float64(lo)
}

// scrapeAll reads /metrics from every node, then the coordinator.
func (s *service) scrapeAll() ([]map[string]float64, error) {
	var out []map[string]float64
	urls := []string{}
	for _, n := range s.up.nodes {
		urls = append(urls, n.url)
	}
	urls = append(urls, s.up.coordURL)
	for _, u := range urls {
		resp, err := s.client.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		m, err := obs.ParseExposition(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", u, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// layerFromScrapes turns the registry deltas over the traced pass into
// per-job figures.
func (s *service) layerFromScrapes(l map[string]float64, before, after []map[string]float64, jobs float64) {
	delta := func(i int, series string) float64 { return after[i][series] - before[i][series] }
	nodeSum := func(series string) float64 {
		var v float64
		for i := range s.up.nodes {
			v += delta(i, series)
		}
		return v
	}
	l["server.queue_wait_s"] = nodeSum("grr_queue_wait_seconds_sum") / jobs
	l["server.attempt_s"] = nodeSum("grr_job_attempt_seconds_sum") / jobs
	l["server.job_s"] = nodeSum("grr_job_seconds_sum") / jobs
	l["server.journal_writes"] = nodeSum("grr_journal_writes_total")
	l["server.journal_writes_per_job"] = l["server.journal_writes"] / jobs
	for i := range s.up.nodes {
		for series := range after[i] {
			if strings.HasPrefix(series, "grr_jobs_retried_total") {
				l["server.retries"] += delta(i, series)
			}
		}
	}
	for _, ph := range routerPhases {
		l["core."+ph+"_s"] = nodeSum(phaseSeries(ph)) / jobs
	}
	var diskMs float64
	for _, n := range s.up.nodes {
		var load server.Load
		if _, err := s.call(http.MethodGet, n.url+"/load", nil, &load); err == nil {
			diskMs += load.DiskWriteMs / serviceNodes
		}
	}
	l["server.disk_write_ms"] = diskMs
	c := len(s.up.nodes)
	l["fleet.forward_s"] = delta(c, "grr_fleet_forward_seconds_sum") / jobs
	l["fleet.forward_retries"] = delta(c, "grr_fleet_forward_retries_total")
	l["fleet.rejects"] = delta(c, "grr_fleet_rejects_total")
	l["fleet.cache_hits"] = delta(c, "grr_fleet_cache_hits_total")
}
