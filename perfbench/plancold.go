package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/plan"
)

// plan-cold: two closed-loop clients post inline /v1/plan sweeps of 5000
// consecutive P around 10^5 on shapes near 2000³ (the ROADMAP's cold-plan
// case). Every request has a memory budget no earlier request used, so
// every point misses the memo: time goes to the grid divisor search, point
// assembly, memo insertion and a ~1.4 MB JSON encode.
const (
	planPoints  = 5000
	planClients = 2
	planPBase   = 100000
	// planMemBase and planMemSpan bound the distinct memory budgets (in
	// words), one per request, so a run can send planMemSpan requests;
	// every budget fits a grid at every P of the range, so each point runs
	// the full constrained search.
	planMemBase = 9000
	planMemSpan = 50000
	// planPicks is how many points of each response the oracle decodes
	// and recomputes.
	planPicks = 3
	// drainLimit bounds how long in-flight requests may take to finish
	// after the measuring window; past it they are cut off, not failed.
	drainLimit = 30 * time.Second
)

// planInput is one request's problem and the body that carries it.
type planInput struct {
	d     core.Dims
	mem   float64
	pMin  int
	body  []byte
	picks [planPicks]int
}

// planMemStride is coprime to planMemSpan, so request i's budget index
// (offset + i·stride) mod planMemSpan never repeats within a run.
const planMemStride = 7919

// planInputAt draws request i of a run (0 ≤ i < planMemSpan): a memory
// budget no other request of the run has, a shape jittered around 2000³
// and a P offset around 10^5. It depends only on (seed, i), so the clients
// draw requests as they go and the oracle draws them again.
func planInputAt(seed uint64, i int) planInput {
	offset := newRNG(seed, streamPlanInputs).IntN(planMemSpan)
	rng := newRNG(seed, uint64(streamPlanInputs)<<40|uint64(i))
	in := planInput{
		d:    core.NewDims(1990+rng.IntN(21), 1990+rng.IntN(21), 1990+rng.IntN(21)),
		mem:  float64(planMemBase + (offset+i*planMemStride)%planMemSpan),
		pMin: planPBase + rng.IntN(1000),
	}
	in.body = []byte(fmt.Sprintf(
		`{"problems":[{"n1":%d,"n2":%d,"n3":%d,"mem":%g,"pMin":%d,"pMax":%d}],"stream":false}`,
		in.d.N1, in.d.N2, in.d.N3, in.mem, in.pMin, in.pMin+planPoints-1))
	for j := range in.picks {
		in.picks[j] = rng.IntN(planPoints)
	}
	return in
}

// planInputs draws the first n requests of a run.
func planInputs(seed uint64, n int) ([]planInput, error) {
	if n > planMemSpan {
		return nil, fmt.Errorf("plan-cold: %d requests exceed the %d distinct memory budgets", n, planMemSpan)
	}
	out := make([]planInput, n)
	for i := range out {
		out[i] = planInputAt(seed, i)
	}
	return out, nil
}

// planSample is one completed request.
type planSample struct {
	in   int
	lat  time.Duration
	done time.Time
	cls  class
	// picked holds the raw JSON of the points the oracle recomputes.
	picked [planPicks][]byte
	reason string
}

var pointStart = []byte(`{"p":`)

// scanPlanEnvelope checks an inline plan envelope without decoding it: one
// result, planPoints point objects whose P values run pMin, pMin+1, … in
// order, no errors. It returns the raw JSON of the picked points.
func scanPlanEnvelope(body []byte, pMin int, picks [planPicks]int) ([planPicks][]byte, error) {
	var raw [planPicks][]byte
	if !bytes.HasPrefix(body, []byte(`{"results":[{"summary":`)) {
		return raw, errors.New("body is not a one-result plan envelope")
	}
	at := bytes.Index(body, []byte(`"points":[`))
	if at < 0 {
		return raw, errors.New("envelope has no points")
	}
	starts := make([]int, 0, planPoints)
	for i := at; ; {
		k := bytes.Index(body[i:], pointStart)
		if k < 0 {
			break
		}
		pos := i + k
		p, n := 0, pos+len(pointStart)
		for n < len(body) && body[n] >= '0' && body[n] <= '9' {
			p = 10*p + int(body[n]-'0')
			n++
		}
		if want := pMin + len(starts); p != want {
			return raw, fmt.Errorf("point %d has P=%d, want %d", len(starts), p, want)
		}
		starts = append(starts, pos)
		i = n
	}
	if len(starts) != planPoints {
		return raw, fmt.Errorf("envelope has %d points, want %d", len(starts), planPoints)
	}
	last := starts[len(starts)-1]
	end := bytes.Index(body[last:], []byte("}]"))
	if end < 0 {
		return raw, errors.New("point list is not terminated")
	}
	if bytes.Contains(body[last+end:], []byte(`"errors"`)) {
		return raw, errors.New("envelope carries errors")
	}
	for j, idx := range picks {
		hi := last + end + 1
		if idx+1 < len(starts) {
			hi = starts[idx+1] - 1 // drop the separating comma
		}
		raw[j] = bytes.Clone(body[starts[idx]:hi])
	}
	return raw, nil
}

// checkPlanPoint compares one served point with direct grid and Theorem 3
// calls for the same inputs.
func checkPlanPoint(raw []byte, d core.Dims, mem float64, p int) error {
	var pt plan.Point
	if err := json.Unmarshal(raw, &pt); err != nil {
		return fmt.Errorf("point P=%d: %w", p, err)
	}
	c := core.CaseOf(d, p)
	switch {
	case pt.P != p:
		return fmt.Errorf("point has P=%d, want %d", pt.P, p)
	case pt.Case != int(c) || pt.TightConstant != core.TightConstant(c):
		return fmt.Errorf("P=%d: case %d, want %d", p, pt.Case, c)
	case pt.Bound != core.LowerBound(d, p) || pt.LeadingTerm != core.LeadingTerm(d, p):
		return fmt.Errorf("P=%d: bound %v, want %v", p, pt.Bound, core.LowerBound(d, p))
	case pt.MemBound != core.MemoryDependentLeading(d, p, mem):
		return fmt.Errorf("P=%d: memory-dependent bound %v, want %v", p, pt.MemBound, core.MemoryDependentLeading(d, p, mem))
	}
	g, ok := grid.OptimalUnderMemory(d, p, mem)
	if pt.Fits != ok {
		return fmt.Errorf("P=%d: fits=%v, want %v", p, pt.Fits, ok)
	}
	if !ok {
		return nil
	}
	if pt.Grid == nil || (plan.GridRef{P1: g.P1, P2: g.P2, P3: g.P3}) != *pt.Grid {
		return fmt.Errorf("P=%d: grid %v, want %v", p, pt.Grid, g)
	}
	if pt.CommCost != grid.CommCost(d, g) || pt.MemoryCost != grid.MemoryCost(d, g) {
		return fmt.Errorf("P=%d: grid costs %v/%v, want %v/%v", p, pt.CommCost, pt.MemoryCost,
			grid.CommCost(d, g), grid.MemoryCost(d, g))
	}
	return nil
}

func (b *bench) planCold() (*report, error) {
	debug.SetGCPercent(400) // as in apiMix: keep the client's pauses out of its timings
	d, setup, err := b.setupDaemon(planClients, nil)
	if err != nil {
		return nil, err
	}
	samples, start, exhausted := runPlanClients(d, b.seed, b.seconds)
	rss := d.stop()
	if exhausted {
		return nil, fmt.Errorf("plan-cold: the run used up all %d distinct memory budgets; widen planMemSpan", planMemSpan)
	}

	rep := newReport()
	var lats []float64
	points, end := 0, start
	for i := range samples {
		s := &samples[i]
		if s.cls == classOK {
			in := planInputAt(b.seed, s.in)
			for j, idx := range in.picks {
				if err := checkPlanPoint(s.picked[j], in.d, in.mem, in.pMin+idx); err != nil {
					s.cls, s.reason = classWrong, err.Error()
					break
				}
			}
		}
		rep.tally.add(s.cls)
		if s.cls == classCutoff {
			continue
		}
		if s.done.After(end) {
			end = s.done
		}
		if s.cls != classOK {
			fmt.Printf("plan-cold: request %d: %v %s\n", s.in, s.cls, s.reason)
			lats = append(lats, math.Inf(1)) // a failure misses every latency limit
			continue
		}
		points += planPoints
		lats = append(lats, ms(s.lat))
	}
	if len(lats) == 0 {
		return rep, errors.New("plan-cold: no request completed")
	}
	sorted := sortedCopy(lats)
	p90, err := tailPercentile(sorted, 90)
	if err != nil {
		return rep, fmt.Errorf("plan-cold: %w; run longer", err)
	}
	rep.e2e([3]string{"plan_p50_ms", "plan_p90_ms", "plan_points_per_s"},
		percentile(sorted, 50), p90, float64(points)/end.Sub(start).Seconds(), setup, rss)
	rep.note("plan-cold: %d requests, %d beyond p90", len(sorted), beyond(len(sorted), 90))
	return rep, nil
}

// runPlanClients drives the closed loop: each client draws the run's next
// request and sends it when its previous answer is fully read, until the
// window ends. Requests in flight at the end are drained, not abandoned,
// unless they outlive drainLimit. It reports whether the clients ran out
// of distinct requests.
func runPlanClients(d *daemon, seed uint64, window time.Duration) ([]planSample, time.Time, bool) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var next atomic.Int64
	var exhausted atomic.Bool
	per := make([][]planSample, planClients)
	start := time.Now()
	deadline := start.Add(window)
	drain := time.AfterFunc(window+drainLimit, cancel)
	defer drain.Stop()
	var wg sync.WaitGroup
	for c := 0; c < planClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := new(bytes.Buffer)
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= planMemSpan {
					exhausted.Store(true)
					return
				}
				in := planInputAt(seed, i)
				t0 := time.Now()
				status, cls := d.post(ctx, "/v1/plan", in.body, buf)
				s := planSample{in: i, lat: time.Since(t0), cls: cls}
				s.done = t0.Add(s.lat)
				if cls == classOK {
					var err error
					if s.picked, err = scanPlanEnvelope(buf.Bytes(), in.pMin, in.picks); err != nil {
						s.cls, s.reason = classWrong, err.Error()
					}
				} else if cls == classStatus {
					s.reason = fmt.Sprintf("HTTP %d: %.200s", status, buf.String())
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var all []planSample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, start, exhausted.Load()
}
