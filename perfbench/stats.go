package main

import (
	"fmt"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tail returns the highest percentile of xs that has at least
// tailMinBeyond samples above it, and that percentile. With too few
// samples for any such percentile it returns the maximum, at 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= tailMinBeyond {
		return s[n-1], 100
	}
	k := n - tailMinBeyond - 1 // s[k] has exactly tailMinBeyond samples above it
	return s[k], 100 * float64(k+1) / float64(n)
}

// latencySummary is a latency distribution as the benchmark reports it.
type latencySummary struct {
	p50, tail, tailPct float64
	n                  int
}

func summarize(ms []float64) latencySummary {
	v, p := tail(ms)
	return latencySummary{p50: median(ms), tail: v, tailPct: p, n: len(ms)}
}

func (l latencySummary) String() string {
	return fmt.Sprintf("p50 %.3f ms, tail p%.1f %.3f ms, %d samples", l.p50, l.tailPct, l.tail, l.n)
}

// failPct is the share of attempted operations that failed: errored,
// were refused, aborted, or failed an oracle.
func failPct(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return 100 * float64(failed) / float64(attempted)
}
