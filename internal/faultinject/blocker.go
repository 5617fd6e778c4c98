package faultinject

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/layer"
)

// Blocker implements board.Interposer: the nth armed AddSegment attempt
// (1-based) blocks until Release is called — or forever, when nobody
// calls it. It models a wedged run: the router is stuck inside a board
// mutation, so the soft-abort machinery (which is only polled between
// mutations) can never fire, and only a hard process kill gets out. The
// grr second-signal test and the server drain tests use it to hold a run
// at an exact, reproducible point. It never vetoes: once released, the
// blocked call proceeds normally.
type Blocker struct {
	mu      sync.Mutex
	at      int
	calls   int
	fired   bool
	release chan struct{}
	once    sync.Once
}

// BlockAt builds a blocker whose nth AddSegment attempt blocks; n = 0
// never blocks.
func BlockAt(n int) *Blocker {
	return &Blocker{at: n, release: make(chan struct{})}
}

// Release unblocks the held call (and any future call that would block).
// Safe to call more than once, and before the blocker has fired.
func (b *Blocker) Release() { b.once.Do(func() { close(b.release) }) }

// Fired reports whether the blocking call has been reached.
func (b *Blocker) Fired() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fired
}

// AllowAddSegment implements board.Interposer.
func (b *Blocker) AllowAddSegment(li, ch, lo, hi int, owner layer.ConnID) bool {
	if owner.Permanent() {
		return true
	}
	b.mu.Lock()
	b.calls++
	block := b.at > 0 && b.calls == b.at
	if block {
		b.fired = true
	}
	b.mu.Unlock()
	if block {
		<-b.release
	}
	return true
}

// AllowPlaceVia implements board.Interposer; a Blocker only ever blocks
// segment placement.
func (b *Blocker) AllowPlaceVia(p geom.Point, owner layer.ConnID) bool { return true }
