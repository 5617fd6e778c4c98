package obs

import (
	"math"
	"testing"
)

func TestWindowPercentile(t *testing.T) {
	w := NewWindow(32)
	if got := w.Percentile(0.95); got != 0 {
		t.Errorf("empty window p95 = %v, want 0", got)
	}
	// 20 samples, observed out of order: 1..20.
	for i := 0; i < 20; i++ {
		w.Observe(float64((i*7)%20 + 1))
	}
	if n := w.Len(); n != 20 {
		t.Fatalf("Len = %d, want 20", n)
	}
	for _, tc := range []struct {
		p, want float64
	}{
		{0.95, 19}, // the 19th smallest, as the doc says
		{0.5, 10},
		{0, 1},
		{1, 20},
		{-0.5, 1}, // clamped to 0
		{1.5, 20}, // clamped to 1
		{math.NaN(), 1},
	} {
		if got := w.Percentile(tc.p); got != tc.want {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestWindowEvictsOldest(t *testing.T) {
	w := NewWindow(4)
	for i := 1; i <= 10; i++ {
		w.Observe(float64(i))
	}
	if n := w.Len(); n != 4 {
		t.Fatalf("Len = %d, want 4", n)
	}
	// The most recent four samples, 7..10, are all that is held.
	if lo, hi := w.Percentile(0), w.Percentile(1); lo != 7 || hi != 10 {
		t.Errorf("held samples span [%v, %v], want [7, 10]", lo, hi)
	}
	// A capacity under 1 holds one sample.
	one := NewWindow(0)
	one.Observe(3)
	one.Observe(5)
	if one.Len() != 1 || one.Percentile(0.5) != 5 {
		t.Errorf("NewWindow(0) holds %d samples, p50 %v; want the latest sample alone", one.Len(), one.Percentile(0.5))
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 || e.Samples() != 0 {
		t.Fatalf("fresh EWMA = %v over %d samples, want 0 over 0", e.Value(), e.Samples())
	}
	e.Observe(10) // the first sample seeds the average
	if got := e.Value(); got != 10 {
		t.Errorf("after one sample = %v, want 10", got)
	}
	e.Observe(20)
	if got := e.Value(); got != 15 {
		t.Errorf("after 10, 20 at alpha 0.5 = %v, want 15", got)
	}
	if n := e.Samples(); n != 2 {
		t.Errorf("Samples = %d, want 2", n)
	}

	// Alpha outside (0, 1] becomes 0.2.
	for _, alpha := range []float64{0, -1, 1.5, math.NaN()} {
		e := NewEWMA(alpha)
		e.Observe(0)
		e.Observe(10)
		if got := e.Value(); math.Abs(got-2) > 1e-12 {
			t.Errorf("NewEWMA(%v): 0 then 10 = %v, want 2 (alpha 0.2)", alpha, got)
		}
	}
	// Alpha 1 is in range: the average is the latest sample.
	one := NewEWMA(1)
	one.Observe(3)
	one.Observe(8)
	if got := one.Value(); got != 8 {
		t.Errorf("NewEWMA(1): 3 then 8 = %v, want 8", got)
	}
}
