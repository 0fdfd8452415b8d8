package main

import (
	"math/rand/v2"
	"time"
)

// Every random choice the benchmark makes comes from a PCG stream keyed by
// the run's seed and a fixed stream number per purpose, so one seed always
// yields the same inputs and schedules, and adding a purpose does not shift
// the draws of the others.
const (
	streamPlanInputs = iota + 1
	streamAPIKeys
	streamAPISchedule
	streamSimWorlds
	streamSimOrder
)

func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// poissonArrivals returns the due times, relative to the phase start, of a
// Poisson process of the given rate (per second) over span: exponential
// gaps, so an open-loop generator sees the bursts independent users make.
func poissonArrivals(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			return out
		}
		out = append(out, at)
	}
}
