package main

import (
	"math"
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie beyond a reported
// percentile: a tail figure resting on fewer is noise.
const tailMinBeyond = 10

// percentile returns the q-quantile (0 <= q <= 1) of sorted samples by
// the nearest-rank rule.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tail is a tail-latency figure: the value at percentile Q of N samples.
type tail struct {
	Value float64
	Q     float64
	N     int
}

// tailPercentile applies the reporting rule for tail latency: report
// the wanted percentile when at least tailMinBeyond samples lie beyond
// it, otherwise the highest percentile that still has that many beyond
// it. With tailMinBeyond or fewer samples no percentile qualifies and
// the maximum is reported (Q = 1), so the figure is never empty.
func tailPercentile(samples []float64, want float64) tail {
	n := len(samples)
	if n == 0 {
		return tail{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	q := want
	if beyond := float64(n) * (1 - want); beyond < tailMinBeyond {
		if n <= tailMinBeyond {
			return tail{Value: sorted[n-1], Q: 1, N: n}
		}
		q = float64(n-tailMinBeyond) / float64(n)
	}
	return tail{Value: percentile(sorted, q), Q: q, N: n}
}

// median returns the middle value of samples (mean of the two middle
// values for an even count).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoopSample is one request of an open-loop run: when it was due,
// when the generator released it, and when it completed.
type openLoopSample struct {
	Due, Released, Done time.Duration
}

// Latency is timed from the due instant, so a stall that delays later
// sends counts against every request it delayed.
func (s openLoopSample) Latency() time.Duration { return s.Done - s.Due }

// Lag is how late the generator released the request.
func (s openLoopSample) Lag() time.Duration { return s.Released - s.Due }
