// Package simfs is the filesystem seam behind every durable write in
// the repository. The boardio snapshot codec, the grrd job journal and
// the fleet's EPOCH fencing all perform their file I/O through the
// package-level FS installed here, which is the real OS filesystem by
// default and costs one atomic pointer load per operation.
//
// Swapping the FS is what powers the crash-consistency tooling:
//
//   - LogFS records the exact sequence of create/write/sync/rename/
//     remove/syncdir operations while still writing through to disk.
//   - Replay re-simulates that operation log up to an arbitrary crash
//     point under configurable durability semantics (everything
//     flushed, unfsynced data dropped, final write torn) and
//     Materialize turns the simulated state into a real directory that
//     recovery code can be pointed at.
//   - InjectFS fails chosen operations with real errno values (ENOSPC,
//     EIO, short write, fsync failure) to drive the degraded-disk
//     runtime paths.
//
// The interface is deliberately tiny: it covers exactly the operations
// the durable paths use, nothing more. Read-only paths (loading a
// snapshot, scanning a journal) also route through it so injection can
// reach them, but LogFS does not record reads — reads have no effect
// on crash state.
package simfs

import (
	"io"
	"io/fs"
	"os"
	"sync/atomic"
)

// File is an open file handle. Write-side users (AtomicWrite) use
// Write/Sync/Close; read-side users (LoadSnapshot, readJobPath) use
// Read/Close. Directory handles returned by OpenDir support only
// Sync/Close.
type File interface {
	io.Reader
	io.Writer
	Sync() error
	Close() error
}

// FS is the set of filesystem operations the durable paths perform.
type FS interface {
	// Create makes (or truncates) a file for writing.
	Create(path string) (File, error)
	// Open opens a file for reading.
	Open(path string) (File, error)
	// OpenDir opens a directory so its entries can be fsynced; callers
	// use only Sync and Close on the returned handle.
	OpenDir(dir string) (File, error)
	Rename(from, to string) error
	Remove(path string) error
	ReadFile(path string) ([]byte, error)
	ReadDir(dir string) ([]fs.DirEntry, error)
	MkdirAll(dir string, perm fs.FileMode) error
}

// osFS is the passthrough implementation; the zero value is ready.
type osFS struct{}

func (osFS) Create(path string) (File, error)          { return os.Create(path) }
func (osFS) Open(path string) (File, error)            { return os.Open(path) }
func (osFS) OpenDir(dir string) (File, error)          { return os.Open(dir) }
func (osFS) Rename(from, to string) error              { return os.Rename(from, to) }
func (osFS) Remove(path string) error                  { return os.Remove(path) }
func (osFS) ReadFile(path string) ([]byte, error)      { return os.ReadFile(path) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) MkdirAll(dir string, perm fs.FileMode) error {
	return os.MkdirAll(dir, perm)
}

// OS returns the passthrough OS filesystem.
func OS() FS { return osFS{} }

// box wraps the interface value so it fits in an atomic.Pointer.
type box struct{ fs FS }

// current is the installed filesystem; nil means the OS filesystem.
// An atomic pointer because tests flip it while server goroutines are
// mid-write.
var current atomic.Pointer[box]

// Current returns the installed filesystem, defaulting to the OS.
func Current() FS {
	if b := current.Load(); b != nil && b.fs != nil {
		return b.fs
	}
	return osFS{}
}

// Swap installs fsys as the package filesystem (nil restores direct OS
// I/O) and returns the previously installed one so tests can restore
// it. It is process-global: tests that swap it must not run in
// parallel with other filesystem-touching tests.
func Swap(fsys FS) FS {
	var prev *box
	if fsys == nil {
		prev = current.Swap(nil)
	} else {
		prev = current.Swap(&box{fs: fsys})
	}
	if prev == nil {
		return nil
	}
	return prev.fs
}
