package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile; with fewer, the percentile is one or two outliers and is not
// reported.
const minBeyond = 10

// rankOf is the 1-based nearest-rank index of percentile q (0 < q ≤ 100)
// among n sorted samples: the smallest rank whose share of samples is at
// least q percent.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly after the nearest-rank q-th
// percentile of n samples.
func beyond(n int, q float64) int { return n - rankOf(n, q) }

// percentile is the nearest-rank q-th percentile of sorted, which must be
// ascending; NaN when it is empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(len(sorted), q)-1]
}

// tailPercentile is percentile gated by the minBeyond rule: it fails when
// fewer than minBeyond samples lie beyond the q-th percentile.
func tailPercentile(sorted []float64, q float64) (float64, error) {
	if len(sorted) == 0 || beyond(len(sorted), q) < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d",
			q, len(sorted), max(0, beyond(len(sorted), q)), minBeyond)
	}
	return percentile(sorted, q), nil
}

// median is the nearest-rank 50th percentile of unsorted values (copied,
// not reordered); NaN for no values.
func median(values []float64) float64 {
	return percentile(sortedCopy(values), 50)
}

// mean is the arithmetic mean; 0 for no values.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
