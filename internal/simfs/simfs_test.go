package simfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// atomicWrite is the canonical durable-write sequence (mirroring
// boardio.AtomicWrite) expressed directly against an FS — the ops the
// replay model must understand.
func atomicWrite(t *testing.T, fsys FS, path string, data []byte) {
	t.Helper()
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	d, err := fsys.OpenDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Close()
}

// TestLogFSWritesThrough: LogFS is not a mock — the bytes land on the
// real disk, and the log records the exact op sequence, reads excluded.
func TestLogFSWritesThrough(t *testing.T) {
	root := t.TempDir()
	l := NewLogFS(root)
	atomicWrite(t, l, filepath.Join(root, "a.txt"), []byte("hello"))

	got, err := os.ReadFile(filepath.Join(root, "a.txt"))
	if err != nil || string(got) != "hello" {
		t.Fatalf("file on disk = %q, %v; want hello", got, err)
	}
	// Neither read path is logged.
	if _, err := l.ReadFile(filepath.Join(root, "a.txt")); err != nil {
		t.Fatal(err)
	}
	f, err := l.Open(filepath.Join(root, "a.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(f); err != nil || string(got) != "hello" {
		t.Fatalf("read through LogFS = %q, %v; want hello", got, err)
	}
	f.Close()
	want := []OpKind{OpCreate, OpWrite, OpSync, OpRename, OpSyncDir}
	ops := l.Ops()
	if len(ops) != len(want) {
		t.Fatalf("logged %d ops, want %d: %+v", len(ops), len(want), ops)
	}
	for i, k := range want {
		if ops[i].Kind != k {
			t.Errorf("op %d = %v, want %v", i, ops[i].Kind, k)
		}
	}
	if ops[3].Path != "a.txt.tmp" || ops[3].To != "a.txt" {
		t.Errorf("rename logged as %q -> %q", ops[3].Path, ops[3].To)
	}
	if string(ops[1].Data) != "hello" {
		t.Errorf("write payload = %q", ops[1].Data)
	}
}

// TestReplayAtomicWrite walks every crash point of one atomic write in
// every mode and asserts the cornerstone property: the target file is
// either absent or holds exactly the full new content — never a torn
// or empty version — in all modes, including strict and torn.
func TestReplayAtomicWrite(t *testing.T) {
	root := t.TempDir()
	l := NewLogFS(root)
	atomicWrite(t, l, filepath.Join(root, "a.txt"), []byte("new-content"))
	ops := l.Ops()

	for _, mode := range []Mode{ModeFlushed, ModeStrict, ModeTorn} {
		for n := 0; n <= len(ops); n++ {
			st := Replay(ops[:n], mode)
			if data, ok := st.Files["a.txt"]; ok {
				if string(data) != "new-content" {
					t.Errorf("mode %v crash@%d: a.txt = %q, want full content or absence",
						mode, n, data)
				}
			}
		}
		// And after the full sequence the file must be there.
		st := Replay(ops, mode)
		if string(st.Files["a.txt"]) != "new-content" {
			t.Errorf("mode %v full replay: a.txt = %q", mode, st.Files["a.txt"])
		}
	}
}

// TestReplayOverwriteKeepsOldOrNew: overwriting a durable file via the
// atomic sequence yields old content or new content at every crash
// point — never a mix, never absence (strict mode: the old dirent
// stays durable until the directory fsync commits the rename).
func TestReplayOverwriteKeepsOldOrNew(t *testing.T) {
	root := t.TempDir()
	l := NewLogFS(root)
	path := filepath.Join(root, "f")
	atomicWrite(t, l, path, []byte("v1"))
	atomicWrite(t, l, path, []byte("v2"))
	ops := l.Ops()
	preamble := 5 // ops of the first write

	for _, mode := range []Mode{ModeFlushed, ModeStrict, ModeTorn} {
		for n := preamble; n <= len(ops); n++ {
			st := Replay(ops[:n], mode)
			data, ok := st.Files["f"]
			if !ok {
				t.Errorf("mode %v crash@%d: f missing — old version destroyed before new one committed", mode, n)
				continue
			}
			if s := string(data); s != "v1" && s != "v2" {
				t.Errorf("mode %v crash@%d: f = %q, want v1 or v2", mode, n, s)
			}
		}
	}
}

// TestStrictModeExposesMissingFsync: the bug class the harness exists
// to catch. A writer that skips the file fsync before rename looks
// fine under ModeFlushed but ModeStrict shows the crash hazard — a
// committed name pointing at an empty file.
func TestStrictModeExposesMissingFsync(t *testing.T) {
	root := t.TempDir()
	l := NewLogFS(root)
	path := filepath.Join(root, "g")
	tmp := path + ".tmp"

	f, _ := l.Create(tmp)
	f.Write([]byte("data"))
	f.Close() // BUG: no Sync
	l.Rename(tmp, path)
	d, _ := l.OpenDir(root)
	d.Sync()
	d.Close()

	ops := l.Ops()
	if st := Replay(ops, ModeFlushed); string(st.Files["g"]) != "data" {
		t.Fatalf("flushed mode should hide the bug, got %q", st.Files["g"])
	}
	st := Replay(ops, ModeStrict)
	data, ok := st.Files["g"]
	if !ok {
		t.Fatal("strict mode lost the file entirely; want committed name with lost data")
	}
	if len(data) != 0 {
		t.Fatalf("strict mode: g = %q; the unfsynced data should be gone", data)
	}
}

// TestReplayRemove: a removed file stays visible in strict mode until
// its directory is fsynced.
func TestReplayRemove(t *testing.T) {
	root := t.TempDir()
	l := NewLogFS(root)
	path := filepath.Join(root, "r")
	atomicWrite(t, l, path, []byte("x"))
	if err := l.Remove(path); err != nil {
		t.Fatal(err)
	}
	ops := l.Ops()

	if st := Replay(ops, ModeFlushed); len(st.Files) != 0 {
		t.Errorf("flushed: files remain after remove: %v", st.Files)
	}
	if st := Replay(ops, ModeStrict); string(st.Files["r"]) != "x" {
		t.Errorf("strict: unsynced remove should leave the durable file, got %v", st.Files)
	}
	d, _ := l.OpenDir(root)
	d.Sync()
	d.Close()
	if st := Replay(l.Ops(), ModeStrict); len(st.Files) != 0 {
		t.Errorf("strict after dir sync: remove should be durable, got %v", st.Files)
	}
}

// TestReplayTornWrite: torn mode halves exactly the final write.
func TestReplayTornWrite(t *testing.T) {
	root := t.TempDir()
	l := NewLogFS(root)
	f, _ := l.Create(filepath.Join(root, "t"))
	f.Write([]byte("aabb"))
	f.Write([]byte("ccdd"))
	f.Close()
	ops := l.Ops()

	st := Replay(ops, ModeTorn)
	if string(st.Files["t"]) != "aabbcc" {
		t.Fatalf("torn: t = %q, want aabbcc (first write whole, last write halved)", st.Files["t"])
	}
	if st := Replay(ops, ModeFlushed); string(st.Files["t"]) != "aabbccdd" {
		t.Fatalf("flushed: t = %q", st.Files["t"])
	}
}

// TestMaterializeRoundTrip: a replayed state lands on a real directory
// exactly as simulated, including subdirectories.
func TestMaterializeRoundTrip(t *testing.T) {
	root := t.TempDir()
	l := NewLogFS(root)
	if err := l.MkdirAll(filepath.Join(root, "sub", "deep"), 0o777); err != nil {
		t.Fatal(err)
	}
	atomicWrite(t, l, filepath.Join(root, "sub", "deep", "f"), []byte("payload"))

	st := Replay(l.Ops(), ModeStrict)
	out := t.TempDir()
	if err := Materialize(st, out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(out, "sub", "deep", "f"))
	if err != nil || string(got) != "payload" {
		t.Fatalf("materialized file = %q, %v", got, err)
	}
}

// TestSwapRestores: Swap installs and restores the package FS.
func TestSwapRestores(t *testing.T) {
	l := NewLogFS(t.TempDir())
	prev := Swap(l)
	if prev != nil {
		t.Fatalf("expected OS default (nil prev), got %T", prev)
	}
	if Current() != FS(l) {
		t.Fatal("Current did not return the installed FS")
	}
	if got := Swap(nil); got != FS(l) {
		t.Fatalf("Swap(nil) returned %T", got)
	}
	if _, ok := Current().(osFS); !ok {
		t.Fatalf("Current after restore = %T, want osFS", Current())
	}
}

// TestInjectFS: rules fire on the Nth match, stick when asked, carry
// real errnos through wrapping, and short writes deliver a prefix.
func TestInjectFS(t *testing.T) {
	root := t.TempDir()
	inj := NewInjectFS(nil)

	// Nth-match, non-sticky.
	inj.Arm(&Rule{Op: OpCreate, Path: "victim", N: 2, Err: syscall.ENOSPC})
	if _, err := inj.Create(filepath.Join(root, "victim1")); err != nil {
		t.Fatalf("first create should pass: %v", err)
	}
	_, err := inj.Create(filepath.Join(root, "victim2"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("second create: err = %v, want ENOSPC", err)
	}
	if f, err := inj.Create(filepath.Join(root, "victim3")); err != nil {
		t.Fatalf("third create should pass (non-sticky): %v", err)
	} else {
		f.Close()
	}

	// Sticky sync failure.
	inj.Disarm()
	r := inj.Arm(&Rule{Op: OpSync, Sticky: true, Err: syscall.EIO})
	f, err := inj.Create(filepath.Join(root, "s"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := f.Sync(); !errors.Is(err, syscall.EIO) {
			t.Fatalf("sync %d: err = %v, want EIO", i, err)
		}
	}
	f.Close()
	if inj.Fired(r) != 3 {
		t.Fatalf("rule fired %d times, want 3", inj.Fired(r))
	}

	// Short write: a prefix lands, the error surfaces.
	inj.Disarm()
	inj.Arm(&Rule{Op: OpWrite, Err: io.ErrShortWrite, Short: 3})
	f, err = inj.Create(filepath.Join(root, "w"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdef"))
	if n != 3 || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write: n=%d err=%v", n, err)
	}
	f.Close()
	got, _ := os.ReadFile(filepath.Join(root, "w"))
	if string(got) != "abc" {
		t.Fatalf("short write landed %q, want abc", got)
	}

	// Read failure: the Nth read through an opened file.
	inj.Disarm()
	inj.Arm(&Rule{Op: OpRead, Path: "w", N: 2, Err: syscall.EIO})
	f, err = inj.Open(filepath.Join(root, "w"))
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 1)
	if _, err := f.Read(p); err != nil || p[0] != 'a' {
		t.Fatalf("first read = %q, %v; want a", p, err)
	}
	if _, err := f.Read(p); !errors.Is(err, syscall.EIO) {
		t.Fatalf("second read: err = %v, want EIO", err)
	}
	f.Close()

	// ReadFile matches the same rule kind.
	inj.Disarm()
	inj.Arm(&Rule{Op: OpRead, Path: "w", Err: syscall.EIO})
	if _, err := inj.ReadFile(filepath.Join(root, "w")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("ReadFile: err = %v, want EIO", err)
	}
}
