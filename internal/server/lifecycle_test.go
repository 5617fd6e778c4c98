package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/layer"
	"repro/internal/obs"
	"repro/internal/simfs"
)

// pauseFS passes through to an underlying filesystem, counting the
// creates of job-record temp files and holding the one numbered hold
// (1-based; 0 holds none) until unpause.
type pauseFS struct {
	simfs.FS
	hold    atomic.Int64
	creates atomic.Int64
	held    atomic.Bool   // the held create is in progress
	paused  chan struct{} // closed when the held create arrives
	resume  chan struct{} // closed by unpause
	landed  chan struct{} // closed when the held write is renamed into place
}

func newPauseFS(hold int64) *pauseFS {
	p := &pauseFS{FS: simfs.OS(), paused: make(chan struct{}), resume: make(chan struct{}), landed: make(chan struct{})}
	p.hold.Store(hold)
	return p
}

func (p *pauseFS) Create(path string) (simfs.File, error) {
	if strings.HasSuffix(path, journalExt+".tmp") && p.creates.Add(1) == p.hold.Load() {
		close(p.paused)
		<-p.resume
		p.held.Store(true)
	}
	return p.FS.Create(path)
}

// Rename marks the held write as landed: the first job-record rename
// after the held create resumes is its own.
func (p *pauseFS) Rename(from, to string) error {
	err := p.FS.Rename(from, to)
	if strings.HasSuffix(from, journalExt+".tmp") && p.held.CompareAndSwap(true, false) {
		close(p.landed)
	}
	return err
}

func (p *pauseFS) waitPaused(t *testing.T) {
	t.Helper()
	select {
	case <-p.paused:
	case <-time.After(10 * time.Second):
		t.Fatal("the held job-record write never arrived")
	}
}

// unpause lets the held write through and waits until it has landed.
func (p *pauseFS) unpause(t *testing.T) {
	t.Helper()
	close(p.resume)
	select {
	case <-p.landed:
	case <-time.After(10 * time.Second):
		t.Fatal("the held job-record write never landed")
	}
}

// racing runs f in its own goroutine and gives it a moment to land while
// a record write is held: a call that does not wait for the write
// completes in that moment, one that waits for it returns after unpause.
func racing(f func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(100 * time.Millisecond):
	}
	return done
}

func waitDone(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned", what)
	}
}

// checkRecordAgrees: the journal holds the state the server published.
func checkRecordAgrees(t *testing.T, dir string, s *Server, id string) {
	t.Helper()
	rec, err := readJobPath(journalPath(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status(id)
	if rec.State != st.State {
		t.Errorf("journal says %s, server published %s", rec.State, st.State)
	}
}

// checkRestartKeepsHandoff drains s and restarts on its journal: a job
// handed off before the drain must stay handed off, not come back live.
func checkRestartKeepsHandoff(t *testing.T, cfg Config, s *Server, id string) {
	t.Helper()
	st, _ := s.Status(id)
	drainServer(t, s)
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s2)
	if st.State != StateHandedOff {
		return
	}
	if st2, _ := s2.Status(id); st2.State != StateHandedOff || s2.Load().Live != 0 {
		t.Errorf("after restart the handed-off job is %s with %d live jobs; want handed_off and none live",
			st2.State, s2.Load().Live)
	}
}

// TestSupersedeDuringRetryWrite: a steal by ID that lands while the
// retrying record is being written must not be overwritten by it.
func TestSupersedeDuringRetryWrite(t *testing.T) {
	cfg := testConfig(t)
	cfg.RetryBase, cfg.RetryMax = time.Hour, time.Hour // the retry never fires
	var first atomic.Bool
	cfg.BoardHook = func(*board.Board) {
		if first.CompareAndSwap(false, true) {
			panic("one-shot attempt failure")
		}
	}
	// Job-record creates: #1 queued, #2 running, #3 retrying — hold #3.
	p := newPauseFS(3)
	prev := simfs.Swap(p)
	t.Cleanup(func() { simfs.Swap(prev) })

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(testSpec(t, 5, nil))
	if err != nil {
		t.Fatal(err)
	}
	p.waitPaused(t)
	done := racing(func() {
		if rec, _, err := s.StealJob(st.ID); err != nil || rec == nil {
			t.Errorf("StealJob = %v, %v; want the record", rec, err)
		}
	})
	p.unpause(t)
	waitDone(t, done, "StealJob")

	if got, _ := s.Status(st.ID); got.State != StateHandedOff {
		t.Errorf("stolen job is %s, want handed_off", got.State)
	}
	checkRecordAgrees(t, cfg.JournalDir, s, st.ID)
	checkRestartKeepsHandoff(t, cfg, s, st.ID)
}

// TestStealDuringUnparkWrite: a steal that lands while a healed disk's
// unpark is writing the job's queued record must not be overwritten by
// it — or the donor re-runs the stolen job after a restart.
func TestStealDuringUnparkWrite(t *testing.T) {
	spec := testSpec(t, 41, map[string]int64{"checkpointevery": 1})
	cfg := testConfig(t)
	cfg.DiskProbeEvery = 5 * time.Millisecond
	p := newPauseFS(0)
	inj := simfs.NewInjectFS(p)
	prev := simfs.Swap(inj)
	t.Cleanup(func() { simfs.Swap(prev) })

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Creates: #1 queued, #2 running, #3 the first checkpoint. Fail #3
	// and, sticky, everything after, so the job parks on ENOSPC.
	inj.Arm(&simfs.Rule{Op: simfs.OpCreate, N: 3, Sticky: true, Err: syscall.ENOSPC})
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "job to park", func() bool {
		js, _ := s.Status(st.ID)
		return js.State == StateInterrupted
	})
	// Hold the first job-record write after the disk heals: the unpark.
	p.hold.Store(p.creates.Load() + 1)
	inj.Disarm()
	p.waitPaused(t)
	var stolen *Job
	done := racing(func() {
		// If the worker starts the unparked job first, the steal stops its
		// attempt and takes the job as the attempt unwinds.
		rec, _, err := s.StealJob(st.ID)
		if err != nil {
			t.Errorf("steal: %v", err)
		}
		stolen = rec
	})
	p.unpause(t)
	waitDone(t, done, "StealJob")

	if got, _ := s.Status(st.ID); stolen == nil || got.State != StateHandedOff {
		t.Errorf("StealJob = %+v and the job is %s; want it stolen, handed_off", stolen, got.State)
	}
	checkRecordAgrees(t, cfg.JournalDir, s, st.ID)
	checkRestartKeepsHandoff(t, cfg, s, st.ID)
}

// TestSupersedeAfterDrain: a steal by ID that reaches a drained node
// hands off the jobs the drain interrupted — a running attempt and a
// pending retry — and a restart on the journal does not run them again.
func TestSupersedeAfterDrain(t *testing.T) {
	for _, running := range []bool{false, true} {
		name := map[bool]string{false: "retrying", true: "running"}[running]
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t)
			cfg.RetryBase, cfg.RetryMax = time.Hour, time.Hour // a retry waits out the drain
			blk := faultinject.BlockAt(1)
			defer blk.Release()
			var first atomic.Bool
			cfg.BoardHook = func(b *board.Board) {
				switch {
				case running:
					b.Interpose(blk)
				case first.CompareAndSwap(false, true):
					panic("one-shot attempt failure")
				}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := s.Submit(testSpec(t, 5, nil))
			if err != nil {
				t.Fatal(err)
			}
			pollUntil(t, "the job to be "+name, func() bool {
				js, _ := s.Status(st.ID)
				return js.State == State(name) && (!running || blk.Fired())
			})
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				if err := s.Drain(context.Background()); err != nil {
					t.Errorf("drain: %v", err)
				}
			}()
			pollUntil(t, "the drain to cancel attempts", func() bool { return s.drainCtx.Err() != nil })
			blk.Release()
			waitDone(t, drained, "Drain")
			if js, _ := s.Status(st.ID); js.State != StateInterrupted {
				t.Fatalf("drained job is %s, want interrupted", js.State)
			}

			stolen := make(chan struct{})
			go func() {
				defer close(stolen)
				if rec, _, err := s.StealJob(st.ID); err != nil || rec == nil || rec.State != StateHandedOff {
					t.Errorf("StealJob = %v, %v; want the handed_off record", rec, err)
				}
			}()
			waitDone(t, stolen, "StealJob")
			if js, _ := s.Status(st.ID); js.State != StateHandedOff {
				t.Errorf("stolen job is %s, want handed_off", js.State)
			}
			checkRecordAgrees(t, cfg.JournalDir, s, st.ID)
			s2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer drainServer(t, s2)
			if js, _ := s2.Status(st.ID); js.State != StateHandedOff || s2.Load().Live != 0 {
				t.Errorf("after restart the job is %s with %d live jobs; want handed_off and none live",
					js.State, s2.Load().Live)
			}
		})
	}
}

// afterCheckpoint holds a route at its first segment once the job's
// first checkpoint record — the third job-record create — is written.
type afterCheckpoint struct {
	creates *atomic.Int64
	blk     *faultinject.Blocker
}

func (a afterCheckpoint) AllowAddSegment(li, ch, lo, hi int, owner layer.ConnID) bool {
	return a.creates.Load() < 3 || a.blk.AllowAddSegment(li, ch, lo, hi, owner)
}

func (afterCheckpoint) AllowPlaceVia(geom.Point, layer.ConnID) bool { return true }

// TestSupersedeAfterCheckpoint: a checkpoint keeps the attempt's cancel,
// so a steal by ID that lands after one still aborts the attempt, which
// hands the job off instead of routing on to done.
func TestSupersedeAfterCheckpoint(t *testing.T) {
	cfg := testConfig(t)
	cfg.Metrics = obs.NewRegistry()
	p := newPauseFS(0)
	prev := simfs.Swap(p)
	t.Cleanup(func() { simfs.Swap(prev) })
	blk := faultinject.BlockAt(1)
	cfg.BoardHook = func(b *board.Board) { b.Interpose(afterCheckpoint{&p.creates, blk}) }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s)
	defer blk.Release()
	st, err := s.Submit(testSpec(t, 41, map[string]int64{"checkpointevery": 1}))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, blk.Fired, "the route never reached a segment after its first checkpoint")
	var rec *Job
	stolen := make(chan struct{})
	go func() {
		defer close(stolen)
		var err error
		if rec, _, err = s.StealJob(st.ID); err != nil {
			t.Errorf("StealJob: %v", err)
		}
	}()
	// The call waits for the attempt; let the route on only once it is
	// marked.
	waitCond(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return atStolen.holds(s.jobs[st.ID])
	}, "StealJob never marked the running attempt")
	blk.Release()
	waitDone(t, stolen, "StealJob")
	if rec == nil || rec.State != StateHandedOff {
		t.Fatalf("StealJob returned %+v, want the handed_off record", rec)
	}
	if js, _ := s.Status(st.ID); js.State != StateHandedOff {
		t.Errorf("stolen job ended %s, want handed_off", js.State)
	}
	checkRecordAgrees(t, cfg.JournalDir, s, st.ID)
	if n := cfg.Metrics.Counter("grr_jobs_done_total").Value(); n != 0 {
		t.Errorf("%d done records, want none", n)
	}
}

// TestRecoveredRunningRecord: a record a crash left at running is
// recovered without counting an attempt out of grr_jobs_running, so no
// attempt is reported running once the job has finished.
func TestRecoveredRunningRecord(t *testing.T) {
	cfg := testConfig(t)
	cfg.Metrics = obs.NewRegistry()
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	snap, err := buildSnapshot(testSpec(t, 5, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const id = "job-000000"
	if err := saveJobRecord(cfg.JournalDir, &Job{ID: id, State: StateRunning, Attempt: 1, snap: snap}); err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s)
	if fin := waitTerminal(t, s, id); fin.State != StateDone {
		t.Fatalf("recovered job ended %s", fin.State)
	}
	if l := s.Load(); l.Running != 0 || l.Live != 0 {
		t.Errorf("Load reports %d running, %d live; want none", l.Running, l.Live)
	}
	if g := cfg.Metrics.Gauge("grr_jobs_running").Value(); g != 0 {
		t.Errorf("grr_jobs_running = %d, want 0", g)
	}
}

// TestConcurrentAdoptionsOfOneID: two handoffs of one job racing into a
// node adopt it once — the second waits for the first's record write
// and is refused as a duplicate instead of writing the same record.
func TestConcurrentAdoptionsOfOneID(t *testing.T) {
	cfg := testConfig(t)
	cfg.Metrics = obs.NewRegistry()
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	snap, err := buildSnapshot(testSpec(t, 5, nil), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Job{ID: "job-peer-000001", State: StateQueued, snap: snap}
	p := newPauseFS(1) // the first adoption's queued record
	prev := simfs.Swap(p)
	t.Cleanup(func() { simfs.Swap(prev) })

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, s)
	first := make(chan error, 1)
	go func() {
		_, err := s.Adopt(rec)
		first <- err
	}()
	p.waitPaused(t)
	done := racing(func() {
		if _, err := s.Adopt(rec); !errors.Is(err, ErrDuplicate) {
			t.Errorf("second adoption: err = %v, want ErrDuplicate", err)
		}
	})
	p.unpause(t)
	waitDone(t, done, "the second Adopt")
	if err := <-first; err != nil {
		t.Fatalf("first adoption: %v", err)
	}
	if fin := waitTerminal(t, s, rec.ID); fin.State != StateDone {
		t.Errorf("adopted job ended %s", fin.State)
	}
	if n := cfg.Metrics.Counter("grr_jobs_adopted_total").Value(); n != 1 {
		t.Errorf("adopted %d times, want once", n)
	}
}

// recordStates lists the state line of every record renamed into id's
// journal file, in order.
func recordStates(ops []simfs.Op, id string) []State {
	tmp, target := id+journalExt+".tmp", id+journalExt
	var buf bytes.Buffer
	var out []State
	for _, op := range ops {
		switch {
		case op.Kind == simfs.OpCreate && op.Path == tmp:
			buf.Reset()
		case op.Kind == simfs.OpWrite && op.Path == tmp:
			buf.Write(op.Data)
		case op.Kind == simfs.OpRename && op.Path == tmp && op.To == target:
			for _, line := range strings.Split(buf.String(), "\n") {
				if st, ok := strings.CutPrefix(line, "state "); ok {
					out = append(out, State(st))
					break
				}
			}
		}
	}
	return out
}

// TestHappyPathRecordSequence pins the journal writes of an undisturbed
// job — admit, start, one mid-run checkpoint, done — the write pattern
// the service benchmark measures.
func TestHappyPathRecordSequence(t *testing.T) {
	want := []State{StateQueued, StateRunning, StateRunning, StateDone}
	for _, seed := range []int64{31, 32, 41} {
		cfg := testConfig(t)
		cfg.DiskProbeEvery = -1
		l := simfs.NewLogFS(cfg.JournalDir)
		prev := simfs.Swap(l)
		s, err := New(cfg)
		if err != nil {
			simfs.Swap(prev)
			t.Fatal(err)
		}
		st, err := s.Submit(testSpec(t, seed, nil))
		if err != nil {
			simfs.Swap(prev)
			t.Fatal(err)
		}
		waitTerminal(t, s, st.ID)
		drainServer(t, s)
		simfs.Swap(prev)
		if got := recordStates(l.Ops(), st.ID); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("seed %d: records %v, want %v", seed, got, want)
		}
	}
}

// oracleEdges is the job lifecycle of DESIGN §9.5 written out again,
// independently of lifecycle.go: for each job-scoped log event, the
// places the job may be in before it and the place it is in after.
// "new" is a job this node has not seen; "parked" is an interrupted job
// shelved by a degraded disk.
var oracleEdges = map[string]struct {
	from []string
	to   string
}{
	"job_submitted":       {[]string{"new"}, "queued"},
	"job_adopted":         {[]string{"new", "handed_off"}, "queued"},
	"job_recovered":       {[]string{"queued", "running", "retrying", "interrupted", "parked"}, "queued"},
	"job_running":         {[]string{"queued"}, "running"},
	"job_done":            {[]string{"running"}, "done"},
	"job_retrying":        {[]string{"running"}, "retrying"},
	"job_requeued":        {[]string{"retrying"}, "queued"},
	"job_failed":          {[]string{"running", "retrying"}, "failed"},
	"job_interrupted":     {[]string{"running", "retrying"}, "interrupted"},
	"job_parked_disk":     {[]string{"running"}, "parked"},
	"job_unparked":        {[]string{"parked"}, "queued"},
	"job_stolen":          {[]string{"queued", "retrying", "interrupted", "parked", "running"}, "handed_off"},
	"handoff_rejournaled": {[]string{"handed_off"}, "handed_off"},
}

// lifecycleOracle replays the structured log against oracleEdges.
type lifecycleOracle struct {
	place   map[string]string   // job ID → place after its last event
	history map[string][]string // job ID → its events, for failure reports
	read    int                 // bytes of the log consumed
}

// replay consumes new log lines and reports the first event the table
// does not allow.
func (o *lifecycleOracle) replay(log []byte) error {
	lines := strings.Split(string(log[o.read:]), "\n")
	for _, line := range lines[:len(lines)-1] { // the last element is an unfinished line
		o.read += len(line) + 1
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(f[2], "job=") {
			continue
		}
		ev, id := strings.TrimPrefix(f[1], "event="), strings.TrimPrefix(f[2], "job=")
		e, ok := oracleEdges[ev]
		if !ok {
			continue // an annotation (job_stolen_unjournaled, ...)
		}
		from := o.place[id]
		if from == "" {
			from = "new"
		}
		o.history[id] = append(o.history[id], ev)
		allowed := false
		for _, f := range e.from {
			allowed = allowed || f == from
		}
		if !allowed {
			return fmt.Errorf("job %s: %s from %s (history %v)", id, ev, from, o.history[id])
		}
		o.place[id] = e.to
	}
	return nil
}

// state maps an oracle place onto the published job state.
func (o *lifecycleOracle) state(id string) State {
	if p := o.place[id]; p != "parked" {
		return State(p)
	}
	return StateInterrupted
}

// syncBuffer is a bytes.Buffer safe for one writer and concurrent reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Clone(b.buf.Bytes())
}

// noSyncFS is the OS filesystem without fsyncs. The schedules restart
// servers only gracefully, never from a crash image, so durability is
// not under test there and fsync latency would dominate their runtime.
type noSyncFS struct{ simfs.FS }

type noSyncFile struct{ simfs.File }

func (noSyncFile) Sync() error { return nil }

func (f noSyncFS) Create(path string) (simfs.File, error) { return noSync(f.FS.Create(path)) }

func (f noSyncFS) OpenDir(dir string) (simfs.File, error) { return noSync(f.FS.OpenDir(dir)) }

func noSync(h simfs.File, err error) (simfs.File, error) {
	if err != nil {
		return nil, err
	}
	return noSyncFile{h}, nil
}

// schedule is one seeded run of lifecycle operations against a real
// server on a real journal directory.
type schedule struct {
	t      *testing.T
	seed   int64
	rng    *rand.Rand
	cfg    Config
	s      *Server
	inj    *simfs.InjectFS
	log    *syncBuffer
	oracle *lifecycleOracle
	specs  []JobSpec
	ids    []string // every job ID the schedule created, in order
	stolen []*Job   // stolen records waiting to be handed back
	enospc bool     // the injector is armed

	panicNext atomic.Bool
	blockNext atomic.Pointer[faultinject.Blocker]
}

func (sc *schedule) fatalf(format string, args ...any) {
	sc.t.Helper()
	sc.t.Fatalf("seed %d: %s", sc.seed, fmt.Sprintf(format, args...))
}

func (sc *schedule) boardHook(b *board.Board) {
	if sc.panicNext.CompareAndSwap(true, false) {
		panic("scripted attempt failure")
	}
	if blk := sc.blockNext.Swap(nil); blk != nil {
		b.Interpose(blk)
	}
}

// submit admits a job from the spec pool; refusals are part of the game.
func (sc *schedule) submit(spec JobSpec) (string, bool) {
	st, err := sc.s.Submit(spec)
	switch {
	case err == nil:
		sc.ids = append(sc.ids, st.ID)
		return st.ID, true
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDiskDegraded), errors.Is(err, ErrInternal):
		return "", false
	}
	sc.fatalf("submit: %v", err)
	return "", false
}

func (sc *schedule) randomSpec() JobSpec { return sc.specs[sc.rng.Intn(len(sc.specs))] }

// jobsIn lists the schedule's jobs whose published state is st.
func (sc *schedule) jobsIn(st State) []string {
	var out []string
	for _, id := range sc.ids {
		if js, _ := sc.s.Status(id); js.State == st {
			out = append(out, id)
		}
	}
	return out
}

// step runs one randomly chosen operation.
func (sc *schedule) step() string {
	s := sc.s
	switch op := sc.rng.Intn(100); {
	case op < 18:
		sc.submit(sc.randomSpec())
		return "submit"
	case op < 26:
		done := sc.jobsIn(StateDone)
		if len(done) == 0 {
			sc.submit(sc.randomSpec())
			return "submit"
		}
		parent := done[sc.rng.Intn(len(done))]
		s.mu.Lock()
		conns := s.jobs[parent].snap.Conns
		s.mu.Unlock()
		edit := core.Edit{Op: core.EditRemoveNet, Net: conns[sc.rng.Intn(len(conns))].Net}
		st, err := s.SubmitEdit(parent, []core.Edit{edit}, nil)
		switch {
		case err == nil:
			sc.ids = append(sc.ids, st.ID)
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDiskDegraded), errors.Is(err, ErrInternal):
		default:
			sc.fatalf("edit of %s: %v", parent, err)
		}
		return "edit"
	case op < 36:
		// Two fresh jobs give a single worker something queued to lose. The
		// job Load names may start before the steal lands; then the steal
		// stops it.
		sc.submit(sc.randomSpec())
		sc.submit(sc.randomSpec())
		if id := s.Load().Steal; id != "" {
			sc.stealByID(id)
		}
		return "steal"
	case op < 44:
		if len(sc.stolen) == 0 {
			return "adopt (nothing stolen)"
		}
		i := sc.rng.Intn(len(sc.stolen))
		rec := sc.stolen[i]
		_, err := s.Adopt(rec)
		switch {
		case err == nil:
			sc.stolen = append(sc.stolen[:i], sc.stolen[i+1:]...)
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDiskDegraded), errors.Is(err, ErrInternal):
		default:
			sc.fatalf("adopt of %s: %v", rec.ID, err)
		}
		return "adopt"
	case op < 62:
		switch sc.rng.Intn(3) {
		case 0:
			return sc.stealRunning()
		case 1:
			sc.submit(sc.randomSpec())
		}
		if len(sc.ids) == 0 {
			return "steal by ID (no jobs)"
		}
		// Favor the newest jobs: they are the ones still waiting or running.
		id := sc.ids[len(sc.ids)-1-sc.rng.Intn(min(3, len(sc.ids)))]
		sc.stealByID(id)
		return "steal by ID"
	case op < 70:
		sc.panicNext.Store(true)
		sc.submit(sc.randomSpec())
		return "panic"
	case op < 90:
		if sc.enospc {
			sc.inj.Disarm()
			sc.enospc = false
			return "enospc off"
		}
		// Wedge a checkpointing job mid-route, fill the disk, let it go:
		// its next checkpoint fails and it parks.
		blk := faultinject.BlockAt(1)
		sc.blockNext.Store(blk)
		spec := sc.specs[0]
		spec.Options = map[string]int64{"checkpointevery": 1}
		if _, ok := sc.submit(spec); ok {
			waitCond(sc.t, blk.Fired, "blocker never fired")
		} else {
			sc.blockNext.Store(nil)
		}
		sc.inj.Arm(&simfs.Rule{Op: simfs.OpCreate, Sticky: true, Err: syscall.ENOSPC})
		sc.enospc = true
		blk.Release()
		return "enospc on"
	default:
		sc.restart()
		return "restart"
	}
}

// stealByID takes one job away with StealJob; a record it moves waits
// to be handed back, like a stolen one.
func (sc *schedule) stealByID(id string) {
	rec, _, err := sc.s.StealJob(id)
	if err != nil {
		sc.fatalf("steal %s: %v", id, err)
	}
	if rec != nil {
		sc.stolen = append(sc.stolen, rec)
	}
}

// stealRunning wedges a fresh job mid-route and steals it by ID while
// its attempt runs: the call marks and cancels the attempt and returns
// once the attempt has unwound along the steal edge. The server is
// quiet between steps, so the fresh job is the one the blocker holds.
func (sc *schedule) stealRunning() string {
	blk := faultinject.BlockAt(1)
	sc.blockNext.Store(blk)
	id, ok := sc.submit(sc.randomSpec())
	if !ok {
		sc.blockNext.Store(nil)
		return "steal running (refused)"
	}
	waitCond(sc.t, blk.Fired, "blocker never fired")
	type stolen struct {
		rec *Job
		err error
	}
	got := make(chan stolen, 1)
	go func() {
		rec, _, err := sc.s.StealJob(id)
		got <- stolen{rec, err}
	}()
	waitCond(sc.t, func() bool {
		sc.s.mu.Lock()
		defer sc.s.mu.Unlock()
		return atStolen.holds(sc.s.jobs[id])
	}, "StealJob never marked the running attempt")
	blk.Release()
	r := <-got
	if r.err != nil {
		sc.fatalf("steal running %s: %v", id, r.err)
	}
	if r.rec != nil {
		sc.stolen = append(sc.stolen, r.rec)
	}
	return "steal running"
}

// quiet reports whether the server has settled: nothing queued, running
// or retrying, no transition in flight, and — once the injector is
// disarmed — the disk healed, with nothing parked or waiting to be
// re-journaled.
func (sc *schedule) quiet() bool {
	s := sc.s
	healthy := !sc.enospc
	if healthy && s.DiskDegraded() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		switch {
		case j.busy, j.State == StateQueued, j.State == StateRunning, j.State == StateRetrying:
			return false
		case healthy && j.marks&(markParked|markUnjournaled) != 0:
			return false
		}
	}
	return true
}

func (sc *schedule) settle(after string) {
	sc.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !sc.quiet() {
		if time.Now().After(deadline) {
			sc.fatalf("never settled after %s: %+v", after, sc.s.Jobs())
		}
		time.Sleep(time.Millisecond)
	}
}

// check compares the settled server with its journal and the oracle.
func (sc *schedule) check(after string) {
	sc.t.Helper()
	if err := sc.oracle.replay(sc.log.Bytes()); err != nil {
		sc.fatalf("after %s: %v", after, err)
	}
	live, waiting, newest := 0, 0, ""
	for _, js := range sc.s.Jobs() {
		if want := sc.oracle.state(js.ID); js.State != want {
			sc.fatalf("after %s: job %s published %s, its log replays to %s (history %v)",
				after, js.ID, js.State, want, sc.oracle.history[js.ID])
		}
		if js.State.Live() {
			live++
		}
		if p := sc.oracle.place[js.ID]; p == "queued" || p == "parked" {
			waiting++
			newest = max(newest, js.ID)
		}
		if sc.s.DiskDegraded() {
			continue // records of parked and handed-off jobs catch up on heal
		}
		if st := sc.journaled(js.ID); st != js.State {
			sc.fatalf("after %s: job %s journaled %s, published %s (history %v)",
				after, js.ID, st, js.State, sc.oracle.history[js.ID])
		}
	}
	if l := sc.s.Load(); l.Live != live || l.Queued != waiting || l.Steal != newest {
		sc.fatalf("after %s: Load reports %d live, %d queued, steal %q; the jobs say %d, %d, %q",
			after, l.Live, l.Queued, l.Steal, live, waiting, newest)
	}
}

// journaled reads the state line of a job's journal record — all the
// checks need, without decoding the snapshot behind it.
func (sc *schedule) journaled(id string) State {
	data, err := os.ReadFile(journalPath(sc.cfg.JournalDir, id))
	if err != nil {
		sc.fatalf("%v", err)
	}
	_, rest, _ := strings.Cut(string(data), "\nstate ")
	st, _, _ := strings.Cut(rest, "\n")
	return State(st)
}

// restart heals the disk, admits a little fresh work, drains, sometimes
// steals by ID a job the drain left waiting, and starts a new server on
// the same journal: exactly the jobs live at the end of the drain must
// be the ones recovered. (Healing first keeps out the
// residual hazard of DESIGN §13.3 — a handoff the disk refused comes
// back after a restart that precedes the heal.)
func (sc *schedule) restart() {
	sc.t.Helper()
	if sc.enospc {
		sc.inj.Disarm()
		sc.enospc = false
		sc.settle("heal")
	}
	for n := sc.rng.Intn(3); n > 0; n-- {
		sc.submit(sc.randomSpec())
	}
	drainServer(sc.t, sc.s)
	// A steal by ID can still reach a drained node.
	if waiting := append(sc.jobsIn(StateQueued), sc.jobsIn(StateInterrupted)...); len(waiting) > 0 && sc.rng.Intn(2) == 0 {
		sc.stealByID(waiting[sc.rng.Intn(len(waiting))])
	}
	if err := sc.oracle.replay(sc.log.Bytes()); err != nil {
		sc.fatalf("drain: %v", err)
	}
	liveBefore := map[string]bool{}
	before := sc.s.Jobs()
	for _, js := range before {
		if js.State.Live() {
			liveBefore[js.ID] = true
		}
	}
	mark := len(sc.log.Bytes())
	s, err := New(sc.cfg)
	if err != nil {
		sc.fatalf("restart: %v", err)
	}
	sc.s = s
	recovered := map[string]bool{}
	for _, line := range strings.Split(string(sc.log.Bytes()[mark:]), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[1] == "event=job_recovered" {
			recovered[strings.TrimPrefix(f[2], "job=")] = true
		}
	}
	if fmt.Sprint(recovered) != fmt.Sprint(liveBefore) {
		var detail []string
		for _, js := range before {
			if recovered[js.ID] != liveBefore[js.ID] {
				detail = append(detail, fmt.Sprintf("%s was %s (history %v)", js.ID, js.State, sc.oracle.history[js.ID]))
			}
		}
		sc.fatalf("restart recovered %v, the drained server held %v live: %s", recovered, liveBefore, strings.Join(detail, "; "))
	}
	if n := len(s.Jobs()); n != len(before) {
		sc.fatalf("restart knows %d jobs, the drained server knew %d", n, len(before))
	}
}

// TestLifecycleSchedules runs seeded schedules of lifecycle operations —
// submit, edit, steal, steal by ID of a waiting or a running job,
// hand-back, attempt panics, ENOSPC on and off, drain and restart —
// against a real server, and after each settled step checks the journal,
// the occupancy report and every job's log history against oracleEdges.
func TestLifecycleSchedules(t *testing.T) {
	const schedules, steps = 50, 20
	specs := []JobSpec{testSpec(t, 31, nil), testSpec(t, 32, nil), testSpec(t, 41, nil)}
	for seed := int64(1); seed <= schedules; seed++ {
		runSchedule(t, seed, steps, specs)
		if t.Failed() {
			return
		}
	}
}

func runSchedule(t *testing.T, seed int64, steps int, specs []JobSpec) {
	sc := &schedule{
		t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), specs: specs,
		log:    &syncBuffer{},
		oracle: &lifecycleOracle{place: map[string]string{}, history: map[string][]string{}},
		inj:    simfs.NewInjectFS(noSyncFS{simfs.OS()}),
	}
	sc.cfg = Config{
		Workers: 1 + int(seed%2), QueueDepth: 3, JournalDir: t.TempDir(), MaxAttempts: 3,
		RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond, RetrySeed: seed,
		DiskProbeEvery: 5 * time.Millisecond, BoardHook: sc.boardHook, Log: obs.NewLogger(sc.log),
	}
	prev := simfs.Swap(sc.inj)
	defer simfs.Swap(prev)
	s, err := New(sc.cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	sc.s = s
	defer func() { drainServer(t, sc.s) }()
	var ops []string
	for i := 0; i < steps; i++ {
		op := sc.step()
		ops = append(ops, op)
		sc.settle(op)
		sc.check(strings.Join(ops, ", "))
	}
	sc.inj.Disarm()
}
