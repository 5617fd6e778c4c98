package server

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/simfs"
)

// traceServer runs two tiny jobs to completion on a server whose
// journal I/O is recorded through LogFS, returning the op trace, the
// job IDs in submission order, and each job's oracle fingerprint.
func traceServer(t *testing.T) (ops []simfs.Op, ids []string, oracle map[string]string) {
	t.Helper()
	specs := []JobSpec{
		testSpec(t, 31, nil),
		testSpec(t, 32, nil),
	}
	cfg := testConfig(t)
	cfg.DiskProbeEvery = -1 // keep the trace to job+epoch writes only

	fps := make([]string, len(specs))
	for i, spec := range specs {
		fp, _ := baseline(t, spec, cfg)
		fps[i] = fmt.Sprintf("%016x", fp)
	}

	l := simfs.NewLogFS(cfg.JournalDir)
	prev := simfs.Swap(l)
	defer simfs.Swap(prev)

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle = make(map[string]string, len(specs))
	for i, spec := range specs {
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
		oracle[st.ID] = fps[i]
	}
	for _, id := range ids {
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("traced job %s ended %s: %+v", id, st.State, st)
		}
	}
	drainServer(t, s)
	return l.Ops(), ids, oracle
}

// TestServerCrashEnumeration is the end-to-end crash-consistency
// harness: every op-boundary crash point of a real two-job run, in
// every durability mode, is materialized and recovered with the real
// server.New. Recovery must never see a corrupt record, done jobs must
// stay done with the oracle fingerprint, live jobs must run to the same
// fingerprint, and (strict mode) a job never disappears once durable.
func TestServerCrashEnumeration(t *testing.T) {
	if testing.Short() {
		t.Skip("crash enumeration boots hundreds of servers")
	}
	ops, ids, oracle := traceServer(t)
	if len(ops) == 0 {
		t.Fatal("LogFS recorded no ops — the journal is not going through simfs")
	}
	t.Logf("trace: %d ops, %d crash points per mode", len(ops), len(ops)+1)

	for _, mode := range []simfs.Mode{simfs.ModeFlushed, simfs.ModeStrict, simfs.ModeTorn} {
		everPresent := map[string]bool{}
		for n := 0; n <= len(ops); n++ {
			st := simfs.Replay(ops[:n], mode)
			dir := t.TempDir()
			if err := simfs.Materialize(st, dir); err != nil {
				t.Fatal(err)
			}

			cfg := testConfig(t)
			cfg.JournalDir = dir
			cfg.DiskProbeEvery = -1
			var log syncBuffer
			cfg.Log = obs.NewLogger(&log)
			srv, err := New(cfg)
			if err != nil {
				t.Fatalf("mode %v crash@%d: recovery refused the journal: %v", mode, n, err)
			}
			if recovery := log.Bytes(); bytes.Contains(recovery, []byte("event=journal_record_corrupt")) {
				t.Fatalf("mode %v crash@%d: recovery saw corrupt records (atomic writes must prevent this):\n%s",
					mode, n, recovery)
			}

			for _, id := range ids {
				js, ok := srv.Status(id)
				if !ok {
					if everPresent[id] {
						t.Fatalf("mode %v crash@%d: job %s vanished after being durable", mode, n, id)
					}
					continue
				}
				everPresent[id] = true
				if !js.State.Terminal() {
					js = waitTerminal(t, srv, id)
				}
				if js.State != StateDone {
					t.Fatalf("mode %v crash@%d: job %s recovered to %s (%s), want done",
						mode, n, id, js.State, js.Error)
				}
				if js.Fingerprint != oracle[id] {
					t.Fatalf("mode %v crash@%d: job %s fingerprint %s, oracle %s — recovery is not bit-identical",
						mode, n, id, js.Fingerprint, oracle[id])
				}
			}
			drainServer(t, srv)
		}
		// The full trace must recover both jobs.
		for _, id := range ids {
			if !everPresent[id] {
				t.Errorf("mode %v: job %s never became durable across the whole trace", mode, id)
			}
		}
	}
}

// TestEpochFenceCrashEnumeration: fencing a journal must itself be
// crash-atomic. At every crash point of WriteEpoch+FenceJournal, the
// epoch file parses to exactly the old token, the new fenced token, or
// (strict mode, before the first commit) absence — never garbage — and
// once the fenced token is visible, server.New refuses the directory.
func TestEpochFenceCrashEnumeration(t *testing.T) {
	root := t.TempDir()
	l := simfs.NewLogFS(root)
	prev := simfs.Swap(l)
	if err := WriteEpoch(root, 1, false); err != nil {
		simfs.Swap(prev)
		t.Fatal(err)
	}
	if n, err := FenceJournal(root); err != nil || n != 2 {
		simfs.Swap(prev)
		t.Fatalf("FenceJournal = %d, %v", n, err)
	}
	simfs.Swap(prev)
	ops := l.Ops()

	for _, mode := range []simfs.Mode{simfs.ModeFlushed, simfs.ModeStrict, simfs.ModeTorn} {
		for n := 0; n <= len(ops); n++ {
			st := simfs.Replay(ops[:n], mode)
			dir := t.TempDir()
			if err := simfs.Materialize(st, dir); err != nil {
				t.Fatal(err)
			}
			epoch, fenced, err := ReadEpoch(dir)
			if err != nil {
				t.Fatalf("mode %v crash@%d: ReadEpoch: %v — a torn epoch token escaped AtomicWrite", mode, n, err)
			}
			switch {
			case epoch == 0 && !fenced: // pre-commit, strict mode only
			case epoch == 1 && !fenced: // old owner's token
			case epoch == 2 && fenced: // fence committed
			default:
				t.Fatalf("mode %v crash@%d: epoch (%d, fenced=%v) is neither old nor new token", mode, n, epoch, fenced)
			}
			if fenced {
				cfg := testConfig(t)
				cfg.JournalDir = dir
				cfg.DiskProbeEvery = -1
				if _, err := New(cfg); !errors.Is(err, ErrFenced) {
					t.Fatalf("mode %v crash@%d: New on fenced journal: err = %v, want ErrFenced", mode, n, err)
				}
			}
		}
	}
}
