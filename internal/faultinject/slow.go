package faultinject

import (
	"io/fs"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/layer"
	"repro/internal/simfs"
)

// Fail-slow seams. Every other injector in this package makes
// operations FAIL — vetoed mutations, errno'd writes, blackholed
// requests. SlowNode and SlowDisk instead make them LATE: the
// operation succeeds, bit-identically, after an injected delay. That
// is the fail-slow failure mode (disk stalls, CPU contention, a lossy
// link) the fleet's slow-posture detection and straggler moves exist
// for, and because nothing errors, both seams compose freely with the
// veto/errno/partition rules — a node can be slow AND occasionally
// vetoed, exactly like a sick machine.

// SlowNode implements board.Interposer: it vetoes nothing and delays
// every Nth mutation attempt by a fixed amount, slowing a node's
// routing work without changing its output. Install it through
// server.Config.BoardHook. The delay applies before the mutation is
// allowed, so a routed board is bit-identical to an uninjected run —
// only later.
type SlowNode struct {
	delay time.Duration
	every int64
	calls atomic.Int64
}

// NewSlowNode builds a SlowNode that sleeps delay before every every-th
// mutation attempt (every < 1 means every attempt).
func NewSlowNode(delay time.Duration, every int) *SlowNode {
	if every < 1 {
		every = 1
	}
	return &SlowNode{delay: delay, every: int64(every)}
}

func (s *SlowNode) stall() {
	if s.calls.Add(1)%s.every == 0 && s.delay > 0 {
		time.Sleep(s.delay)
	}
}

// AllowAddSegment delays, then allows.
func (s *SlowNode) AllowAddSegment(li, ch, lo, hi int, owner layer.ConnID) bool {
	s.stall()
	return true
}

// AllowPlaceVia delays, then allows.
func (s *SlowNode) AllowPlaceVia(p geom.Point, owner layer.ConnID) bool {
	s.stall()
	return true
}

// SlowDisk wraps a simfs.FS and delays every operation on paths under
// a directory prefix — a per-journal disk stall. Because simfs.Swap is
// process-global, the prefix is what confines the fault to one node in
// an in-process fleet test: only that node's journal drags, its peers'
// I/O is untouched. Reads are delayed too (a stalling disk does not
// discriminate), and no operation ever errors.
type SlowDisk struct {
	under  simfs.FS
	prefix string
	delay  time.Duration
}

// NewSlowDisk wraps under so every operation on a path under prefix is
// delayed by delay.
func NewSlowDisk(under simfs.FS, prefix string, delay time.Duration) *SlowDisk {
	return &SlowDisk{under: under, prefix: prefix, delay: delay}
}

func (d *SlowDisk) stall(path string) {
	if strings.HasPrefix(path, d.prefix) && d.delay > 0 {
		time.Sleep(d.delay)
	}
}

func (d *SlowDisk) Create(path string) (simfs.File, error) {
	d.stall(path)
	return d.under.Create(path)
}

func (d *SlowDisk) Open(path string) (simfs.File, error) {
	d.stall(path)
	return d.under.Open(path)
}

func (d *SlowDisk) OpenDir(dir string) (simfs.File, error) {
	d.stall(dir)
	return d.under.OpenDir(dir)
}

func (d *SlowDisk) Rename(from, to string) error {
	d.stall(from)
	return d.under.Rename(from, to)
}

func (d *SlowDisk) Remove(path string) error {
	d.stall(path)
	return d.under.Remove(path)
}

func (d *SlowDisk) ReadFile(path string) ([]byte, error) {
	d.stall(path)
	return d.under.ReadFile(path)
}

func (d *SlowDisk) ReadDir(dir string) ([]fs.DirEntry, error) {
	d.stall(dir)
	return d.under.ReadDir(dir)
}

func (d *SlowDisk) MkdirAll(dir string, perm fs.FileMode) error {
	d.stall(dir)
	return d.under.MkdirAll(dir, perm)
}
