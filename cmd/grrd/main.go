// Command grrd is the fault-tolerant routing daemon: an HTTP service
// that accepts board-routing jobs, runs them on a bounded worker pool,
// and journals every job crash-safely so a killed daemon resumes where
// it left off (internal/server has the full protocol).
//
// Usage:
//
//	grrd -journal-dir /var/lib/grrd
//	grrd -journal-dir d -listen 127.0.0.1:8377 -workers 8 -queue-depth 32
//	grrd -coordinator -listen 127.0.0.1:8370
//	grrd -journal-dir d -node-name a -join http://127.0.0.1:8370
//
// With -coordinator the process serves the fleet front door instead of
// routing jobs itself (internal/fleet): workers join it with -join and
// -node-name, heartbeat their load (naming the job a steal would take),
// and get fenced and failed over if they go quiet; an idle worker gets
// the waiting job a node names, and with -move-after, a job that
// outruns the fleet is stolen from its node and resumed on a peer.
// Clients submit to the coordinator exactly as they would to a single
// grrd.
//
// Endpoints of a worker daemon (server.Server.Handler):
//
//	POST /jobs      submit {"design": ..., "conns": ..., "options": {...},
//	                "deadline_ms": ...}
//	GET  /jobs      list jobs
//	GET  /jobs/{id} one job
//	POST /jobs/{id}/edit    derive a job from a done one by an edit
//	                        script {"edits": ..., "deadline_ms": ...}
//	GET  /healthz   liveness
//	GET  /readyz    readiness (503 naming the posture: saturated,
//	                draining, fenced or disk_degraded)
//	GET  /load      the occupancy report heartbeats carry; the steal
//	                broker reads its "steal" field afresh
//	POST /fleet/steal/{id}  give up the named job to the coordinator,
//	                        stopping its attempt if it runs
//	POST /fleet/handoff     adopt a peer's journal record
//	GET  /metrics   Prometheus text exposition (queue, jobs, retries,
//	                journal, router search effort and phase timings)
//	GET  /debug/pprof/...  net/http/pprof, only with -pprof
//
// Endpoints of the coordinator (fleet.Coordinator.Handler):
//
//	POST /jobs      place a job on a worker, or refuse it as a worker would
//	GET  /jobs      the fleet-wide job list
//	GET  /jobs/{id} one job, from the node that holds it
//	POST /join      a worker joins the fleet
//	POST /heartbeat a worker's liveness and load
//	GET  /nodes     the coordinator's view of the fleet
//	GET  /healthz   liveness
//	GET  /readyz    200 while at least one node is schedulable
//	GET  /metrics   fleet series
//
// On startup grrd prints one line, "grrd: listening on ADDR", and then
// recovers any interrupted jobs from the journal before serving new
// ones. Job lifecycle transitions (submit → running → retrying →
// done/failed) go to stderr as structured logfmt lines stamped with
// job IDs.
//
// Exit codes:
//
//	0    drained cleanly after SIGINT/SIGTERM: every in-flight job
//	     checkpointed, journal consistent
//	1    startup failure or drain timeout
//	2    usage error
//	130  second SIGINT/SIGTERM forced an immediate exit mid-drain
//	137  simulated kill: -crash-at fired (fault injection)
//
// The first SIGINT/SIGTERM starts a graceful drain (admission stops,
// running jobs checkpoint); a second one gives up waiting and exits
// immediately — safe, because the journal is consistent at every
// instant by construction.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/board"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/server"
)

const (
	exitOK       = 0
	exitInternal = 1
	exitUsage    = 2
	exitForced   = 130
	exitCrash    = 137
)

func main() { os.Exit(run()) }

func run() int {
	var (
		listen     = flag.String("listen", "127.0.0.1:0", "TCP address to serve HTTP on")
		journalDir = flag.String("journal-dir", "", "job journal directory (required)")
		workers    = flag.Int("workers", 4, "routing worker pool size")
		queueDepth = flag.Int("queue-depth", 16, "max live jobs before submissions get 429")
		maxAtt     = flag.Int("max-attempts", 3, "attempts per job before it is failed")
		retryBase  = flag.Duration("retry-base", 10*time.Millisecond, "base retry backoff (doubles per attempt, jittered)")
		retryMax   = flag.Duration("retry-max", 2*time.Second, "retry backoff cap")
		maxBudget  = flag.Duration("max-time-budget", 0, "cap every job's routing time budget (0 = leave job budgets alone)")
		drainMax   = flag.Duration("drain-timeout", 30*time.Second, "how long a graceful drain may take")
		diskProbe  = flag.Duration("disk-probe-every", 5*time.Second, "how often a disk-degraded daemon re-probes the journal disk (negative disables)")
		headerMax  = flag.Duration("read-header-timeout", 5*time.Second, "how long a client may take to send request headers")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

		coordMode = flag.Bool("coordinator", false, "run as the fleet coordinator instead of a worker daemon")
		joinURL   = flag.String("join", "", "worker mode: coordinator base URL to join (e.g. http://127.0.0.1:8370)")
		nodeName  = flag.String("node-name", "", "worker mode: fleet-unique node name (required with -join)")
		hbEvery   = flag.Duration("heartbeat-every", time.Second, "heartbeat cadence (worker: send; coordinator: expect and sweep)")
		hbMiss    = flag.Int("heartbeat-miss", 3, "coordinator mode: missed beats before a node is fenced and failed over")
		moveAfter = flag.Duration("move-after", 0, "coordinator mode: move a job to a peer once it has outrun this delay or the fleet's p95, whichever is larger (0 = moves off)")

		crashAt = flag.Uint64("crash-at", 0, "fault injection: kill the process (exit 137) at the Nth board mutation across all jobs")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "grrd: unexpected arguments:", flag.Args())
		return exitUsage
	}
	if *coordMode {
		if *joinURL != "" {
			fmt.Fprintln(os.Stderr, "grrd: -coordinator and -join are mutually exclusive")
			return exitUsage
		}
		return runCoordinator(*listen, *hbEvery, *hbMiss, *retryBase, *retryMax, *headerMax, *moveAfter)
	}
	if *journalDir == "" {
		fmt.Fprintln(os.Stderr, "grrd: -journal-dir is required")
		return exitUsage
	}
	if *joinURL != "" && *nodeName == "" {
		fmt.Fprintln(os.Stderr, "grrd: -join requires -node-name")
		return exitUsage
	}

	reg := obs.NewRegistry()
	logger := obs.NewLogger(os.Stderr)
	cfg := server.Config{
		NodeName:       *nodeName,
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		JournalDir:     *journalDir,
		MaxAttempts:    *maxAtt,
		RetryBase:      *retryBase,
		RetryMax:       *retryMax,
		MaxTimeBudget:  *maxBudget,
		DrainBudget:    *drainMax,
		DiskProbeEvery: *diskProbe,
		Metrics:        reg,
		Log:            logger,
	}
	if *crashAt > 0 {
		// One crasher shared by every job board: its mutation counter
		// spans the daemon's whole life, so a test can kill the process
		// at any point in a job — or across jobs — and then verify the
		// restarted daemon recovers bit-identically.
		crasher := faultinject.CrashAt(*crashAt)
		cfg.BoardHook = func(b *board.Board) { b.Interpose(crasher) }
		cfg.OnCrash = func(c faultinject.Crash) {
			fmt.Fprintf(os.Stderr, "grrd: %v\n", c)
			os.Exit(exitCrash)
		}
	}

	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "grrd:", err)
		return exitInternal
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "grrd:", err)
		return exitInternal
	}
	// Catch signals before announcing the address: anyone who has seen
	// the banner may SIGTERM us, and an un-notified signal would kill
	// the process with the default action instead of draining.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// The one contractual stdout line; tests and wrappers parse it to
	// find the bound port when -listen used port 0.
	fmt.Printf("grrd: listening on %s\n", ln.Addr())

	// Fleet membership is strictly additive: the agent joins and
	// heartbeats in the background, and if the coordinator is down the
	// daemon serves its local queue exactly as a standalone grrd would.
	var agentCancel context.CancelFunc = func() {}
	if *joinURL != "" {
		agent := fleet.NewAgent(fleet.AgentConfig{
			Node:        *nodeName,
			Addr:        "http://" + ln.Addr().String(),
			Journal:     *journalDir,
			Coordinator: *joinURL,
			Server:      s,
			Every:       *hbEvery,
			Log:         logger,
		})
		var actx context.Context
		actx, agentCancel = context.WithCancel(context.Background())
		go agent.Run(actx)
	}
	defer agentCancel()

	handler := s.Handler()
	if *pprofOn {
		// Profiling is opt-in: the debug surface leaks heap contents and
		// stack traces, so it never ships on by default.
		dbg := http.NewServeMux()
		dbg.Handle("/", handler)
		dbg.HandleFunc("GET /debug/pprof/", pprof.Index)
		dbg.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		handler = dbg
	}

	// Timeouts on every read path: without them one client holding a
	// half-sent request pins Shutdown forever (a trivial slowloris keeps
	// the daemon from ever finishing its drain).
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: *headerMax,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "grrd:", err)
		return exitInternal
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "grrd: %v: draining (again to force exit)\n", got)
	}

	// A second signal aborts the wait: the journal is consistent at
	// every instant, so dying now only costs the work since the last
	// checkpoints, never correctness.
	go func() {
		got := <-sig
		fmt.Fprintf(os.Stderr, "grrd: %v again: forcing exit\n", got)
		os.Exit(exitForced)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainMax)
	defer cancel()
	code := exitOK
	if err := s.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "grrd:", err)
		code = exitInternal
	}
	// Bound the HTTP wind-down too: Shutdown waits for in-flight
	// requests, and a stalled client must not outlast the drain budget.
	sdCtx, sdCancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := hs.Shutdown(sdCtx); err != nil {
		hs.Close()
	}
	sdCancel()
	fmt.Fprintln(os.Stderr, "grrd: drained")
	return code
}

// runCoordinator serves the fleet coordinator on listen. It prints the
// same contractual banner as a worker, so the harnesses that parse it
// need not care which mode they launched.
func runCoordinator(listen string, hbEvery time.Duration, hbMiss int,
	retryBase, retryMax, headerMax, moveAfter time.Duration) int {
	reg := obs.NewRegistry()
	c := fleet.New(fleet.Config{
		HeartbeatEvery: hbEvery,
		HeartbeatMiss:  hbMiss,
		RetryBase:      retryBase,
		RetryMax:       retryMax,
		MoveAfter:      moveAfter,
		Metrics:        reg,
		Log:            obs.NewLogger(os.Stderr),
	})
	defer c.Close()

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "grrd:", err)
		return exitInternal
	}
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("grrd: listening on %s\n", ln.Addr())

	hs := &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: headerMax,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "grrd:", err)
		return exitInternal
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "grrd: %v: shutting down coordinator\n", got)
	}
	sdCtx, sdCancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := hs.Shutdown(sdCtx); err != nil {
		hs.Close()
	}
	sdCancel()
	return exitOK
}
