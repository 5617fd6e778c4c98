package obs

import (
	"math"
	"sort"
	"sync"
)

// Latency instruments for the tail-latency contract (DESIGN §14). The
// registry's Histogram is built for scraping — fixed buckets, no
// quantile extraction — but the coordinator's move delay and a node's
// heartbeat need two things a scrape series cannot give: a recent
// average that forgets the past at a controlled rate (EWMA: a node's
// journal-write latency, and its routing cost per connection for
// deadline admission) and an exact percentile over a bounded window of
// recent samples (Window: the move delay's p95 of completions). Both
// are standalone values, not registry series: they feed decisions, and
// the decisions' outcomes are what the registry counts.

// EWMA is a thread-safe exponentially weighted moving average. The
// zero value is NOT ready; use NewEWMA. An EWMA with no samples yet
// reports 0 and Samples() == 0, so callers can require a minimum
// sample count before trusting it.
type EWMA struct {
	mu    sync.Mutex
	alpha float64
	value float64
	n     int64
}

// NewEWMA builds an EWMA with smoothing factor alpha in (0, 1]: each
// sample moves the average alpha of the way toward itself. Alpha
// outside the range is clamped to 0.2, a forgiving default that needs
// roughly a dozen samples to converge.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		alpha = 0.2
	}
	return &EWMA{alpha: alpha}
}

// Observe folds one sample in. The first sample seeds the average
// directly — warming up from zero would underreport early latencies.
func (e *EWMA) Observe(v float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		e.value = v
	} else {
		e.value += e.alpha * (v - e.value)
	}
	e.n++
}

// Value returns the current average (0 before any sample).
func (e *EWMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.value
}

// Samples returns how many observations have been folded in.
func (e *EWMA) Samples() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// Window is a thread-safe fixed-capacity ring of recent samples with
// exact percentile extraction. Old samples fall out as new ones
// arrive, so a node that was slow yesterday does not poison today's
// move delay. The zero value is NOT ready; use NewWindow.
type Window struct {
	mu   sync.Mutex
	buf  []float64
	next int
}

// NewWindow builds a window holding the most recent max samples
// (minimum 1).
func NewWindow(max int) *Window {
	if max < 1 {
		max = 1
	}
	return &Window{buf: make([]float64, 0, max)}
}

// Observe records one sample, evicting the oldest when full.
func (w *Window) Observe(v float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, v)
		return
	}
	w.buf[w.next] = v
	w.next = (w.next + 1) % cap(w.buf)
}

// Len returns the number of samples currently held.
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buf)
}

// Percentile returns the p-th percentile (p in [0, 1]) of the held
// samples by nearest-rank over a sorted copy, or 0 when empty. p is
// clamped into range; p = 0.95 with 20 samples returns the 19th
// smallest.
func (w *Window) Percentile(p float64) float64 {
	w.mu.Lock()
	sorted := append([]float64(nil), w.buf...)
	w.mu.Unlock()
	if len(sorted) == 0 {
		return 0
	}
	sort.Float64s(sorted)
	if math.IsNaN(p) || p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
