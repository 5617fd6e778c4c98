package boardio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/simfs"
	"repro/internal/stringer"
	"repro/internal/workload"
)

// testSnapshot builds a small valid snapshot for I/O-path tests.
func testSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	d, err := workload.Generate(workload.SmallSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	strung, err := stringer.String(d, stringer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp := cutCheckpoint(t, d, strung.Conns)
	return &Snapshot{Design: d, Conns: strung.Conns, Opts: core.DefaultOptions(), Check: cp}
}

// TestSaveSnapshotInjectedWriteFailure drives the atomic-write failure
// path through the filesystem seam: a failing write must surface the
// injected error, remove the temporary file, and leave the previous good
// snapshot untouched.
func TestSaveSnapshotInjectedWriteFailure(t *testing.T) {
	snap := testSnapshot(t)
	path := filepath.Join(t.TempDir(), "run.snap")

	if err := SaveSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	inj := simfs.NewInjectFS(nil)
	prev := simfs.Swap(inj)
	defer simfs.Swap(prev)
	inj.Arm(&simfs.Rule{Op: simfs.OpWrite, Path: "run.snap.tmp", Err: syscall.EIO})

	if err := SaveSnapshot(path, snap); !errors.Is(err, syscall.EIO) {
		t.Fatalf("save with failing writer: err = %v, want the injected EIO", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("failed save left its temporary file behind")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(good) {
		t.Error("failed save clobbered the previous good snapshot")
	}

	// With the disk healed, saving and loading work again.
	inj.Disarm()
	if err := SaveSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSnapshotInjectedReadFailure exercises the read side of the
// seam: a failing read surfaces as a load error naming the path.
func TestLoadSnapshotInjectedReadFailure(t *testing.T) {
	snap := testSnapshot(t)
	path := filepath.Join(t.TempDir(), "run.snap")
	if err := SaveSnapshot(path, snap); err != nil {
		t.Fatal(err)
	}

	inj := simfs.NewInjectFS(nil)
	prev := simfs.Swap(inj)
	defer simfs.Swap(prev)
	inj.Arm(&simfs.Rule{Op: simfs.OpRead, Path: "run.snap", Err: syscall.EIO})

	if _, err := LoadSnapshot(path); !errors.Is(err, syscall.EIO) {
		t.Fatalf("load with failing reader: err = %v, want the injected EIO", err)
	}
}

// TestSnapshotTruncatedTrailer is the deterministic regression test for
// truncation at the section/trailer boundary: a snapshot cut anywhere
// inside (or just before) its checksum trailer — the exact shape a crash
// mid-write produces — must be rejected, never parsed as a shorter but
// "valid" snapshot. This was previously covered only by whatever the
// fuzz corpus happened to contain.
func TestSnapshotTruncatedTrailer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, testSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Locate the trailer: the final "checksum ..." line.
	i := bytes.LastIndex(data, []byte("\nchecksum "))
	if i < 0 {
		t.Fatal("snapshot has no checksum trailer")
	}
	trailerStart := i + 1 // first byte of "checksum"

	cuts := []struct {
		name string
		at   int
	}{
		{"before-trailer", trailerStart},                    // last section complete, trailer absent
		{"mid-keyword", trailerStart + len("check")},        // inside the tag
		{"after-tag", trailerStart + len("checksum ")},      // tag complete, no digits
		{"mid-digits", trailerStart + len("checksum ") + 7}, // half the hash
		{"last-digit-lost", len(data) - 2},                  // hash one hex digit short
	}
	for _, c := range cuts {
		t.Run(c.name, func(t *testing.T) {
			if c.at <= 0 || c.at >= len(data) {
				t.Fatalf("cut point %d out of range (len %d)", c.at, len(data))
			}
			if _, err := ReadSnapshot(bytes.NewReader(data[:c.at])); err == nil {
				t.Errorf("snapshot truncated at byte %d accepted", c.at)
			}
		})
	}

	// Sanity: the untruncated bytes still parse.
	if _, err := ReadSnapshot(bytes.NewReader(data)); err != nil {
		t.Fatalf("untruncated snapshot rejected: %v", err)
	}
}

// optionVector is every recognized option's integer serialization from
// o, in optionFields order.
func optionVector(o *core.Options) []int64 {
	vals := make([]int64, len(optionFields))
	for i, f := range optionFields {
		vals[i] = f.get(o)
	}
	return vals
}

func TestApplyOptionRoundTrip(t *testing.T) {
	var o core.Options
	for _, f := range optionFields {
		if err := ApplyOption(&o, f.name, 1); err != nil {
			t.Errorf("ApplyOption(%q): %v", f.name, err)
		}
	}
	if o.Radius != 1 || !o.Sort || !o.Paranoid || o.NodeBudget != 1 {
		t.Errorf("options not applied: %+v", o)
	}
	if err := ApplyOption(&o, "bogus", 1); err == nil {
		t.Error("unknown option accepted")
	}
	before := optionVector(&o)
	for _, name := range legacyOptions {
		if err := ApplyOption(&o, name, 4); err != nil {
			t.Errorf("legacy option %q rejected: %v", name, err)
		}
	}
	if !slices.Equal(optionVector(&o), before) {
		t.Error("legacy options changed the options")
	}
}

// TestLegacyWorkersSnapshotResumes: snapshots written by releases that
// still serialized a retired option load, and resume to the same board
// as an uninterrupted run. legacy-workers.snap carries the intra-board
// worker count ("option workers 4"); legacy-recordregions.snap carries
// "option recordregions 1", which armed incremental re-routing.
func TestLegacyWorkersSnapshotResumes(t *testing.T) {
	for _, fixture := range []string{"legacy-workers.snap", "legacy-recordregions.snap"} {
		t.Run(fixture, func(t *testing.T) {
			snap, err := LoadSnapshot(filepath.Join("testdata", fixture))
			if err != nil {
				t.Fatal(err)
			}
			if snap.Check.NextPos == 0 && snap.Check.Pass == 0 {
				t.Fatal("fixture is not cut mid-route")
			}
			b, r, err := snap.Restore()
			if err != nil {
				t.Fatal(err)
			}
			if res := r.Route(); res.Aborted != core.AbortNone {
				t.Fatalf("resumed route aborted: %v", res.Aborted)
			}

			fresh, err := board.New(snap.Design.GridConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := snap.Design.PlacePins(fresh); err != nil {
				t.Fatal(err)
			}
			fr, err := core.New(fresh, snap.Conns, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			fr.Route()
			if got, want := b.Fingerprint(), fresh.Fingerprint(); got != want {
				t.Errorf("resumed fingerprint %016x, uninterrupted %016x", got, want)
			}

			// The retired option is gone from what a snapshot writes.
			var buf bytes.Buffer
			if err := WriteSnapshot(&buf, snap); err != nil {
				t.Fatal(err)
			}
			for _, name := range legacyOptions {
				if bytes.Contains(buf.Bytes(), []byte("option "+name+" ")) {
					t.Errorf("rewritten snapshot still carries option %s", name)
				}
			}
		})
	}
}

func TestMetricsIntsRoundTrip(t *testing.T) {
	m := core.Metrics{Connections: 3, Routed: 2, Failed: 1, RipUps: 7, WireLength: 99}
	m.ByMethod[core.Lee] = 2
	v := metricsInts(m)
	if len(v) != 22 {
		t.Fatalf("metrics serialize to %d integers, want 22", len(v))
	}
	if got := unpackMetrics(v); got != m {
		t.Errorf("round trip changed metrics:\n got  %+v\n want %+v", got, m)
	}
}
