package server

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/faultinject"
)

// TestServerSoak pushes a few hundred jobs through a small worker pool
// while a seeded fault injector randomly crashes attempts mid-mutation,
// and a drain/restart cycle lands in the middle of the run. The contract
// under all that churn is absolute: no job is lost, none is duplicated,
// every one ends done with a clean audit and the exact fingerprint a
// quiet, daemon-free run of the same spec produces.
func TestServerSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; run without -short")
	}

	const (
		numSeeds = 8
		numJobs  = 300
	)
	cfg := Config{
		Workers:    4,
		QueueDepth: 32,
		JournalDir: t.TempDir(),
		// Crash streaks are random; give jobs enough attempts that the
		// odds of exhausting them are negligible (0.3^12 per job).
		MaxAttempts: 12,
		RetryBase:   time.Millisecond,
		RetryMax:    20 * time.Millisecond,
	}

	// Baselines first, before fault injection is wired in: one direct
	// run per seed gives the fingerprint every daemon job must match.
	specs := make([]JobSpec, numSeeds)
	wantFP := make([]uint64, numSeeds)
	wantM := make([]core.Metrics, numSeeds)
	for i := range specs {
		specs[i] = testSpec(t, int64(100+i), nil)
		wantFP[i], wantM[i] = baseline(t, specs[i], cfg)
	}

	// Roughly a third of attempt boards get a crasher armed at a random
	// early mutation; the rest run clean. Workers call the hook
	// concurrently, so the rng is mutex-guarded.
	var (
		mu      sync.Mutex
		rng     = rand.New(rand.NewSource(20260805))
		crashes int
	)
	cfg.BoardHook = func(b *board.Board) {
		mu.Lock()
		defer mu.Unlock()
		if rng.Intn(10) < 3 {
			crashes++
			b.Interpose(faultinject.CrashAt(uint64(1 + rng.Intn(40))))
		}
	}

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	jobSeed := make(map[string]int, numJobs)
	submit := func(s *Server, i int) {
		t.Helper()
		for {
			st, err := s.Submit(specs[i%numSeeds])
			if err == nil {
				if _, dup := jobSeed[st.ID]; dup {
					t.Fatalf("duplicate job ID %s", st.ID)
				}
				jobSeed[st.ID] = i % numSeeds
				return
			}
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("submit %d: %v", i, err)
			}
			time.Sleep(time.Millisecond) // shed load, retry
		}
	}

	for i := 0; i < numJobs/2; i++ {
		submit(s, i)
	}

	// Mid-soak restart: drain checkpoints everything in flight, then a
	// fresh server on the same journal picks the backlog up and keeps
	// absorbing the remaining submissions.
	drainServer(t, s)
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := numJobs / 2; i < numJobs; i++ {
		submit(s, i)
	}

	for id := range jobSeed {
		waitTerminal(t, s, id)
	}
	verifySoakPopulation(t, s, jobSeed, wantFP, wantM, crashes)
	drainServer(t, s)

	// The journal alone must reconstruct the whole population, terminal
	// results included: a post-soak restart sees all jobs done with the
	// same fingerprints, not a fresh queue.
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	verifySoakPopulation(t, s, jobSeed, wantFP, wantM, crashes)
	drainServer(t, s)
}

// verifySoakPopulation checks the zero-lost / zero-duplicated / all-done
// contract against per-seed baselines.
func verifySoakPopulation(t *testing.T, s *Server, jobSeed map[string]int, wantFP []uint64, wantM []core.Metrics, crashes int) {
	t.Helper()
	if got := len(s.Jobs()); got != len(jobSeed) {
		t.Errorf("server reports %d jobs, want %d", got, len(jobSeed))
	}
	retried, maxAttempt := 0, 0
	for id, seed := range jobSeed {
		st, ok := s.Status(id)
		if !ok {
			t.Errorf("job %s lost", id)
			continue
		}
		if st.State != StateDone {
			t.Errorf("job %s (seed %d): state %s after attempt %d, err %q",
				id, seed, st.State, st.Attempt, st.Error)
			continue
		}
		if fp := fingerprintString(wantFP[seed]); st.Fingerprint != fp {
			t.Errorf("job %s (seed %d): fingerprint %s, want %s", id, seed, st.Fingerprint, fp)
		}
		if st.AuditOK == nil || !*st.AuditOK {
			t.Errorf("job %s (seed %d): audit not clean: %+v", id, seed, st)
		}
		if st.Metrics == nil || *st.Metrics != wantM[seed] {
			t.Errorf("job %s (seed %d): metrics diverged:\n got  %+v\n want %+v",
				id, seed, st.Metrics, wantM[seed])
		}
		if st.Attempt > 1 {
			retried++
		}
		if st.Attempt > maxAttempt {
			maxAttempt = st.Attempt
		}
	}
	t.Logf("soak: %d jobs done, %d crashers armed, %d jobs retried (max attempt %d)",
		len(jobSeed), crashes, retried, maxAttempt)
}
