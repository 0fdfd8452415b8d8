package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/algs"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/topo"
)

// simulate: Algorithm 1 worlds run one at a time through the algs
// registry with the default options (default engine, the service's
// bandwidth-only machine), as mmsim, cmd/paper and the /v1/simulate job
// body run them. Small worlds (P ≤ 64, shapes ≤ 128³) are where service
// traffic lives and matrix work dominates; large worlds (P = 4096, the
// default -max-sim-procs, on 256³, flat and on a 16x16x16 torus priced in
// walk mode) are dominated by message scheduling. The split separates the
// engine's fixed per-world cost from its per-message cost.
const (
	largeP    = 4096
	largeN    = 256
	largeTopo = "torus=16x16x16"
)

// smallBase maps each small world's P to its base shape: one world per P
// is the base cube (a dividing grid for the cube P), two are jittered
// shapes no larger than it.
var smallBase = []struct{ p, n int }{{8, 64}, {16, 64}, {27, 96}, {32, 96}, {64, 128}}

// world is one simulation input with its reference product.
type world struct {
	class     string // "small", "large" or "torus"
	d         core.Dims
	p         int
	a, b, ref *matrix.Dense
}

// simWorlds draws the seeded world list and computes every reference
// product with matrix.Mul.
func simWorlds(seed uint64) []world {
	rng := newRNG(seed, streamSimWorlds)
	var ws []world
	add := func(class string, d core.Dims, p int) {
		a := matrix.Random(d.N1, d.N2, rng.Uint64())
		b := matrix.Random(d.N2, d.N3, rng.Uint64())
		ws = append(ws, world{class: class, d: d, p: p, a: a, b: b, ref: matrix.Mul(a, b)})
	}
	jitter := func(n int) int { return n - rng.IntN(n/4) }
	for _, sb := range smallBase {
		add("small", core.Square(sb.n), sb.p)
		for i := 0; i < 2; i++ {
			add("small", core.NewDims(jitter(sb.n), jitter(sb.n), jitter(sb.n)), sb.p)
		}
	}
	add("large", core.Square(largeN), largeP)
	add("torus", core.Square(largeN), largeP)
	return ws
}

// simOpts are the run options of a world: the registry defaults on the
// bandwidth-only machine, plus the torus for the torus class.
func simOpts(w world) (algs.Opts, error) {
	opts := algs.Opts{Config: machine.BandwidthOnly()}
	if w.class == "torus" {
		fabric, err := topo.Parse(largeTopo, w.p, topo.Link{Alpha: opts.Config.Alpha, Beta: opts.Config.Beta})
		if err != nil {
			return opts, err
		}
		opts.Topo = fabric
	}
	return opts, nil
}

// checkWorld is the simulate oracle: the product must match matrix.Mul,
// no run may beat Theorem 3, and a run whose grid divides the shape and
// equals the analytic optimum must attain the bound (ratio 1).
func checkWorld(w world, res *algs.Result) error {
	if diff := res.C.MaxAbsDiff(w.ref); !(diff <= 1e-12*float64(w.d.N2)) {
		return fmt.Errorf("%v on P=%d: product differs from matrix.Mul by %g", w.d, w.p, diff)
	}
	bound, cost := core.LowerBound(w.d, w.p), res.CommCost()
	tol := 1e-9 * (1 + bound)
	if cost < bound-tol {
		return fmt.Errorf("%v on P=%d: %v words beat the bound %v", w.d, w.p, cost, bound)
	}
	if attains(w.d, res.Grid) && math.Abs(cost-bound) > tol {
		return fmt.Errorf("%v on P=%d grid %v: ratio to bound %v, want 1", w.d, w.p, res.Grid, cost/bound)
	}
	return nil
}

// attains reports whether Algorithm 1 must meet the bound exactly on g: g
// is Theorem 3's analytic optimal grid, it divides the shape, and every
// block splits evenly over the fiber that shares it (A's over Axis3, B's
// over Axis1, C's over Axis2), so no rank holds an extra word.
func attains(d core.Dims, g grid.Grid) bool {
	a1, a2, a3 := grid.Analytic(d, g.Size())
	near := func(x int, y float64) bool { return math.Abs(float64(x)-y) <= 1e-9*y }
	if !grid.Divides(d, g) || !near(g.P1, a1) || !near(g.P2, a2) || !near(g.P3, a3) {
		return false
	}
	b1, b2, b3 := d.N1/g.P1, d.N2/g.P2, d.N3/g.P3
	return b1*b2%g.P3 == 0 && b2*b3%g.P1 == 0 && b1*b3%g.P2 == 0
}

func (b *bench) simulate() (*report, error) {
	entry, err := algs.Lookup("Alg1")
	if err != nil {
		return nil, err
	}
	var worlds []world
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		worlds = simWorlds(b.seed)
		times = append(times, time.Since(start).Seconds())
	}
	fmt.Printf("set-up times: %.4g s\n", times)
	opts := make([]algs.Opts, len(worlds))
	for i, w := range worlds {
		if opts[i], err = simOpts(w); err != nil {
			return nil, err
		}
	}
	run := func(i int) (*algs.Result, error) {
		return entry.Run(worlds[i].a, worlds[i].b, worlds[i].p, opts[i])
	}
	return timeWorlds(worlds, run, b.seed, b.seconds, median(times))
}

// timeWorlds runs the worlds one at a time in seeded order, pass after
// pass, checking every run, until window has passed after a warm-up pass,
// and reports the simulate metrics (setup is the set-up time in seconds).
// Only runs that pass their oracle are timed. A class with no timed run
// is an error; the report then still carries the failures.
func timeWorlds(worlds []world, run func(i int) (*algs.Result, error), seed uint64, window time.Duration, setup float64) (*report, error) {
	rep := newReport()
	byClass := map[string][]float64{}
	byWorld := make([][]float64, len(worlds))
	var msgs float64
	var busy time.Duration
	attained := 0
	order := newRNG(seed, streamSimOrder)
	perm := make([]int, len(worlds))
	for i := range perm {
		perm[i] = i
	}
	// Pass 0 is a warm-up: it is checked but not timed into the metrics,
	// so pools and lazily built tables are in place before timing starts.
	deadline := time.Time{}
	for pass := 0; deadline.IsZero() || time.Now().Before(deadline); pass++ {
		if pass == 1 {
			deadline = time.Now().Add(window)
		}
		order.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for _, i := range perm {
			if pass > 0 && !time.Now().Before(deadline) {
				break
			}
			w := worlds[i]
			start := time.Now()
			res, err := run(i)
			wall := time.Since(start)
			if err == nil {
				err = checkWorld(w, res)
			}
			if err != nil {
				rep.tally.add(classWrong)
				if rep.tally[classWrong] <= 10 {
					fmt.Printf("simulate: %s world: %v\n", w.class, err)
				}
				continue
			}
			rep.tally.add(classOK)
			if attains(w.d, res.Grid) {
				attained++
			}
			if pass == 0 {
				continue
			}
			byClass[w.class] = append(byClass[w.class], ms(wall))
			byWorld[i] = append(byWorld[i], ms(wall))
			msgs += float64(res.Stats.TotalMessages)
			busy += wall
		}
	}
	for _, class := range []string{"small", "large", "torus"} {
		if len(byClass[class]) > 0 {
			continue
		}
		if rep.tally[classWrong] > 0 {
			return rep, fmt.Errorf("simulate: no %s world passed its oracle in the timed window", class)
		}
		return nil, fmt.Errorf("simulate: the window ended before a %s world ran; run longer", class)
	}
	// The small worlds differ in P and shape, so their times form one
	// cluster per world; a median over all of them would sit between
	// clusters. sim_small_ms is the mean over the small worlds of each
	// world's median time instead (a world whose every run failed its
	// oracle has no time and is left out), and sim_large_ms likewise over
	// the flat and torus worlds.
	var small []float64
	for i, w := range worlds {
		if w.class == "small" && len(byWorld[i]) > 0 {
			small = append(small, median(byWorld[i]))
		}
	}
	large := (median(byClass["large"]) + median(byClass["torus"])) / 2
	rep.e2e([3]string{"sim_small_ms", "sim_large_ms", "sim_msgs_per_s"},
		mean(small), large, msgs/busy.Seconds(), setup, peakRSS("/proc/self/status"))
	rep.note("simulate: %d small, %d flat and %d torus P=%d worlds timed; %d runs met the bound exactly; sim_large_ms is the mean of the flat (%.4g ms) and torus (%.4g ms) medians",
		len(byClass["small"]), len(byClass["large"]), len(byClass["torus"]), largeP, attained,
		median(byClass["large"]), median(byClass["torus"]))
	return rep, nil
}
