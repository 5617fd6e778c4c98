package simfs

import (
	"fmt"
	"io/fs"
	"strings"
	"sync"
)

// InjectFS passes through to an underlying filesystem but fails
// selected operations with real errno-wrapped errors, so the code
// under test classifies them exactly as it would classify the genuine
// article (errors.Is(err, syscall.ENOSPC) and friends). It drives the
// disk-degradation runtime paths and the fsync/short-write semantics
// tests, and fails reads (OpRead: ReadFile, or Read on a file from
// Open) for the load paths.
type InjectFS struct {
	under FS

	mu    sync.Mutex
	rules []*Rule
}

// Rule arms one failure. A rule matches an operation when the kinds
// are equal and Path (if non-empty) is a substring of the operation's
// path. The N'th match (1-based; 0 means the first) trips the rule:
// the operation fails with Err. A sticky rule keeps failing every
// later match too — that is what a full disk does.
type Rule struct {
	Op     OpKind
	Path   string
	N      int
	Sticky bool
	Err    error
	// Short, for OpWrite rules, writes this many bytes through before
	// failing — a torn write the application is told about.
	Short int

	seen  int
	fired int
}

// NewInjectFS wraps under (the OS filesystem when nil).
func NewInjectFS(under FS) *InjectFS {
	if under == nil {
		under = osFS{}
	}
	return &InjectFS{under: under}
}

// Arm adds a rule. Returns the rule so tests can poll Fired.
func (i *InjectFS) Arm(r *Rule) *Rule {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rules = append(i.rules, r)
	return r
}

// Disarm removes every rule: the disk "heals".
func (i *InjectFS) Disarm() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rules = nil
}

// Fired reports how many times the rule has injected a failure.
func (i *InjectFS) Fired(r *Rule) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return r.fired
}

// check consults the rules for an operation; a non-nil return (and,
// for writes, a short-write byte count >= 0) means the op must fail.
func (i *InjectFS) check(kind OpKind, path string) (error, int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, r := range i.rules {
		if r.Op != kind {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		r.seen++
		n := r.N
		if n == 0 {
			n = 1
		}
		if r.seen == n || (r.Sticky && r.seen >= n) {
			r.fired++
			return fmt.Errorf("simfs: injected %s on %s: %w", kind, path, r.Err), r.Short
		}
	}
	return nil, 0
}

func (i *InjectFS) Create(path string) (File, error) {
	if err, _ := i.check(OpCreate, path); err != nil {
		return nil, err
	}
	f, err := i.under.Create(path)
	if err != nil {
		return nil, err
	}
	return &injectFile{f: f, fs: i, path: path}, nil
}

func (i *InjectFS) Open(path string) (File, error) {
	f, err := i.under.Open(path)
	if err != nil {
		return nil, err
	}
	return &injectFile{f: f, fs: i, path: path}, nil
}

func (i *InjectFS) OpenDir(dir string) (File, error) {
	f, err := i.under.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return &injectFile{f: f, fs: i, path: dir, dir: true}, nil
}

func (i *InjectFS) Rename(from, to string) error {
	if err, _ := i.check(OpRename, from); err != nil {
		return err
	}
	return i.under.Rename(from, to)
}

func (i *InjectFS) Remove(path string) error {
	if err, _ := i.check(OpRemove, path); err != nil {
		return err
	}
	return i.under.Remove(path)
}

func (i *InjectFS) ReadFile(path string) ([]byte, error) {
	if err, _ := i.check(OpRead, path); err != nil {
		return nil, err
	}
	return i.under.ReadFile(path)
}

func (i *InjectFS) ReadDir(dir string) ([]fs.DirEntry, error) { return i.under.ReadDir(dir) }

func (i *InjectFS) MkdirAll(dir string, perm fs.FileMode) error {
	if err, _ := i.check(OpMkdir, dir); err != nil {
		return err
	}
	return i.under.MkdirAll(dir, perm)
}

type injectFile struct {
	f    File
	fs   *InjectFS
	path string
	dir  bool
}

func (f *injectFile) Read(p []byte) (int, error) {
	if err, _ := f.fs.check(OpRead, f.path); err != nil {
		return 0, err
	}
	return f.f.Read(p)
}

func (f *injectFile) Write(p []byte) (int, error) {
	if err, short := f.fs.check(OpWrite, f.path); err != nil {
		n := 0
		if short > 0 {
			if short > len(p) {
				short = len(p)
			}
			n, _ = f.f.Write(p[:short])
		}
		return n, err
	}
	return f.f.Write(p)
}

// Sync injects fsyncgate semantics: a failed fsync means the kernel
// may already have dropped the dirty pages, so the injected failure
// reports the error and the caller must treat the file state as
// unknown — never rename it into place, never retry the fsync and
// carry on.
func (f *injectFile) Sync() error {
	kind := OpSync
	if f.dir {
		kind = OpSyncDir
	}
	if err, _ := f.fs.check(kind, f.path); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *injectFile) Close() error { return f.f.Close() }
