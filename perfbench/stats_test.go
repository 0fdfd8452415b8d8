package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {10, 1}, {10.1, 2}, {0.1, 1},
	} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("p%g = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of no values = %v, want NaN", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	values := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	// p90 of 100 samples is the 90th; 10 lie beyond it.
	if got, err := tailPercentile(values(100), 90); err != nil || got != 90 {
		t.Errorf("p90 of 100 = %v, %v; want 90, nil", got, err)
	}
	if _, err := tailPercentile(values(99), 90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	// p99 needs 1000 samples.
	if _, err := tailPercentile(values(999), 99); err == nil {
		t.Error("p99 of 999 samples must be refused")
	}
	if got, err := tailPercentile(values(1000), 99); err != nil || got != 990 {
		t.Errorf("p99 of 1000 = %v, %v; want 990, nil", got, err)
	}
	if _, err := tailPercentile(nil, 50); err == nil {
		t.Error("no samples must be refused")
	}
	if b := beyond(1010, 99); b != 10 {
		t.Errorf("beyond(1010, 99) = %d, want 10", b)
	}
}

func TestFailuresSortAsSlowest(t *testing.T) {
	got := percentile(sortedCopy([]float64{3, math.Inf(1), 1, 2}), 75)
	if got != 3 {
		t.Errorf("p75 = %v, want 3", got)
	}
	if got := percentile(sortedCopy([]float64{3, math.Inf(1), 1, 2}), 100); !math.IsInf(got, 1) {
		t.Errorf("p100 = %v, want +Inf", got)
	}
}
