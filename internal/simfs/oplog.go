package simfs

import (
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
)

// OpKind names one logged filesystem operation.
type OpKind int

const (
	OpCreate  OpKind = iota // create/truncate a file
	OpWrite                 // append bytes to an open file
	OpSync                  // fsync a file's data
	OpRename                // rename a file
	OpRemove                // unlink a file
	OpSyncDir               // fsync a directory's entries
	OpMkdir                 // create a directory chain
	OpRead                  // ReadFile, or read from a file opened with Open: an InjectFS rule kind; LogFS records no reads
)

var opNames = [...]string{"create", "write", "sync", "rename", "remove", "syncdir", "mkdir", "read"}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return "op?"
}

// Op is one logged operation. Paths are slash-separated and relative
// to the LogFS root (paths outside the root are kept absolute, which
// simply means Replay treats them as their own namespace). Data is a
// private copy of the written bytes.
type Op struct {
	Kind OpKind
	Path string
	To   string // rename target
	Data []byte // OpWrite payload
}

// LogFS writes through to an underlying filesystem while recording
// every mutating operation. Reads pass through unlogged. The log is
// append-only and mutex-guarded; Ops returns a snapshot copy.
//
// The recording model assumes what this codebase guarantees: files are
// written sequentially through a handle obtained from Create and never
// modified after rename, so an OpWrite can be attributed to the path
// the handle was created under.
type LogFS struct {
	root  string
	under FS

	mu  sync.Mutex
	ops []Op
}

// NewLogFS records operations relative to root, writing through to the
// real OS filesystem.
func NewLogFS(root string) *LogFS {
	return &LogFS{root: root, under: osFS{}}
}

// Ops returns a copy of the operation log.
func (l *LogFS) Ops() []Op {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Op, len(l.ops))
	copy(out, l.ops)
	return out
}

// Len reports the number of logged operations.
func (l *LogFS) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops)
}

func (l *LogFS) rel(path string) string {
	r, err := filepath.Rel(l.root, path)
	if err != nil || strings.HasPrefix(r, "..") {
		return filepath.ToSlash(path)
	}
	return filepath.ToSlash(r)
}

func (l *LogFS) record(op Op) {
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
}

func (l *LogFS) Create(path string) (File, error) {
	f, err := l.under.Create(path)
	if err != nil {
		return nil, err
	}
	l.record(Op{Kind: OpCreate, Path: l.rel(path)})
	return &logFile{f: f, log: l, path: l.rel(path)}, nil
}

func (l *LogFS) Open(path string) (File, error) { return l.under.Open(path) }

func (l *LogFS) OpenDir(dir string) (File, error) {
	f, err := l.under.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	return &logFile{f: f, log: l, path: l.rel(dir), dir: true}, nil
}

func (l *LogFS) Rename(from, to string) error {
	if err := l.under.Rename(from, to); err != nil {
		return err
	}
	l.record(Op{Kind: OpRename, Path: l.rel(from), To: l.rel(to)})
	return nil
}

func (l *LogFS) Remove(path string) error {
	if err := l.under.Remove(path); err != nil {
		return err
	}
	l.record(Op{Kind: OpRemove, Path: l.rel(path)})
	return nil
}

func (l *LogFS) ReadFile(path string) ([]byte, error) { return l.under.ReadFile(path) }

func (l *LogFS) ReadDir(dir string) ([]fs.DirEntry, error) { return l.under.ReadDir(dir) }

func (l *LogFS) MkdirAll(dir string, perm fs.FileMode) error {
	if err := l.under.MkdirAll(dir, perm); err != nil {
		return err
	}
	l.record(Op{Kind: OpMkdir, Path: l.rel(dir)})
	return nil
}

// logFile wraps an open handle, attributing writes and syncs to the
// path it was opened under.
type logFile struct {
	f    File
	log  *LogFS
	path string
	dir  bool
}

func (lf *logFile) Read(p []byte) (int, error) { return lf.f.Read(p) }

func (lf *logFile) Write(p []byte) (int, error) {
	n, err := lf.f.Write(p)
	if n > 0 {
		data := make([]byte, n)
		copy(data, p[:n])
		lf.log.record(Op{Kind: OpWrite, Path: lf.path, Data: data})
	}
	return n, err
}

func (lf *logFile) Sync() error {
	if err := lf.f.Sync(); err != nil {
		return err
	}
	kind := OpSync
	if lf.dir {
		kind = OpSyncDir
	}
	lf.log.record(Op{Kind: kind, Path: lf.path})
	return nil
}

func (lf *logFile) Close() error { return lf.f.Close() }
