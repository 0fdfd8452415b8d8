package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/hbl"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/topo"
)

// api-mix: one process sends a seeded Poisson stream of small requests —
// /v1/lowerbound, /v1/grid, /v1/predict (a share on a torus), /v1/bound
// (HBL DSL programs) and short streamed /v1/plan ranges — over at most two
// connections. Keys are Zipf-skewed over a universe whose memo footprint
// is several times parmmd's default 4096-entry cache, so the hit ratio
// settles high but below 1. Latency is timed from when each request was
// due, so a stall shows in the requests queued behind it.
const (
	apiConns = 2
	// apiRefRate is the fixed reference rate (requests per second) at
	// which the latency percentiles are reported.
	apiRefRate = 1000.0
	// apiLimit is the latency limit the rate ladder is judged by (p99).
	apiLimit = 10 * time.Millisecond
	// apiAbortAfter ends a phase once any request waited this long: the
	// backlog is growing and the rung has failed.
	apiAbortAfter = time.Second
	// apiSkew is the Zipf exponent of the key draw.
	apiSkew = 1.25
	// planStreamPoints is the length of each streamed plan range.
	planStreamPoints = 16
)

// apiLadder is the fixed rate ladder (requests per second), in steps of
// about 6% where two cores cross the limit (5000–9000/s on the machine it
// was tuned on, depending on its other tenants); the highest rung
// meeting the limit without a growing backlog is api_max_rps.
var apiLadder = []float64{500, 600, 700, 800, 1000, 1200, 1400, 1700, 2000, 2400, 2800, 3200, 3600,
	4000, 4250, 4500, 4750, 5000, 5300, 5600, 5900, 6250, 6600, 7000, 7400, 7800, 8300, 8800, 9300,
	9900, 10500, 11100, 11800, 12500, 13300, 14100, 15000, 16000}

const (
	// apiLadderStart is the index of the rung the climb starts at (4000/s).
	apiLadderStart = 13
	// rungAttempts is how often a failing rung is run before the climb
	// takes the failure as real.
	rungAttempts = 3
	// maxRungRuns caps the rung runs of one climb that has found a
	// passing rung, retries included, so a faster program cannot stretch
	// the run without bound.
	maxRungRuns = 20
)

// climb walks the ladder. From the start rung it goes up two rungs at a
// time while rungs pass, then tries the rung it skipped below the first
// failure; if the start rung fails it walks down one rung at a time to the
// first that passes.
type climb struct {
	i    int
	mode climbMode
}

type climbMode int

const (
	climbStart  climbMode = iota
	climbUp               // i was reached two rungs above a pass
	climbRefine           // i was skipped on the way up; the last try
	climbDown             // i is below a failing start
	climbDone
)

func newClimb() *climb { return &climb{i: apiLadderStart} }

// rung is the ladder index to run next, or -1 when the climb is over.
func (c *climb) rung() int {
	if c.mode == climbDone || c.i < 0 {
		return -1
	}
	return c.i
}

// record takes the verdict on the current rung and picks the next one.
func (c *climb) record(passed bool) {
	switch {
	case c.mode == climbRefine, c.mode == climbDown && passed:
		c.mode = climbDone
	case !passed && c.mode == climbUp:
		c.mode, c.i = climbRefine, c.i-1
	case !passed:
		c.mode, c.i = climbDown, c.i-1
	case c.i+2 < len(apiLadder):
		c.mode, c.i = climbUp, c.i+2
	case c.i+1 < len(apiLadder):
		c.mode, c.i = climbRefine, c.i+1
	default:
		c.mode = climbDone
	}
}

// The reference rate is measured in refSegments segments; each rung is
// judged over rungWindows equal windows (see phaseStats).
//
// The reference figures, and the tails a rung is judged by, are the
// nearest-rank quietQuantile-th percentile over the segments or windows:
// the quieter ones' value, not the median. Other tenants of the shared
// two-core machine stall the generator and parmmd for milliseconds at a
// time, in episodes that last seconds to minutes: a stalled segment's p95
// read up to 13 times a quiet one's, and in 3 of 10 runs at least half of
// the segments were stalled. Stalls only add latency, so the quieter
// segments measure the program; a change that slows every request still
// moves every segment. A rung past capacity still fails: its backlog grows
// (see meets). With rungs judged by the median window, a stall that
// outlasted the climb failed every rung it tried.
const (
	refSegments   = 8
	quietQuantile = 25
	rungWindows   = 5
)

type apiKind int

const (
	kindLowerBound apiKind = iota
	kindGrid
	kindPredict
	kindBound
	kindPlanStream
	numKinds
)

var kindNames = [numKinds]string{"lowerbound", "grid", "predict", "bound", "plan_stream"}

var kindPaths = [numKinds]string{"/v1/lowerbound", "/v1/grid", "/v1/predict", "/v1/bound", "/v1/plan"}

// kindWeights is the traffic share of each kind; kindKeys the size of each
// kind's key universe. These, the torus share of predicts and apiSkew
// are assumed, not taken from measured traffic: the repository records
// none (cmd/loadgen's fixed rotation is synthetic too, and sends no
// /v1/grid). They make a mix whose memo hit ratio settles high but below
// 1, which is what the workload is for; read api-mix as that, not as
// representative traffic.
var (
	kindWeights = [numKinds]float64{0.30, 0.20, 0.25, 0.15, 0.10}
	kindKeys    = [numKinds]int{8000, 4000, 4000, 2000, 1000}
)

// boundPrograms are the DSL templates of /v1/bound traffic; the extents
// are drawn per key.
var boundPrograms = []string{
	"A[i,k]*B[k,j] -> C[i,j] | i=%d k=%d j=%d",
	"F[i] += X[i]*Y[j] | i=%d j=%d",
	"A[a1,a2,c1]*B[c1,b1] -> C[a1,a2,b1] | a1=%d a2=%d c1=%d b1=%d",
}

// apiRequest is one key of the universe: its wire body and the inputs the
// oracle recomputes the answer from.
type apiRequest struct {
	kind    apiKind
	key     int
	body    []byte
	d       core.Dims
	p       int
	mem     float64
	cfg     machine.Config
	spec    string
	program string
}

// newAPIRequest builds key k of kind; the result depends only on (seed,
// kind, k), never on the order keys are drawn in.
func newAPIRequest(seed uint64, kind apiKind, k int) *apiRequest {
	rng := newRNG(seed, uint64(streamAPIKeys)<<40|uint64(kind)<<32|uint64(k))
	logUniform := func(lo, hi int) int {
		return int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), rng.Float64())))
	}
	r := &apiRequest{kind: kind, key: k}
	dims := func(lo, hi int) {
		r.d = core.NewDims(logUniform(lo, hi), logUniform(lo, hi), logUniform(lo, hi))
	}
	switch kind {
	case kindLowerBound:
		dims(16, 20000)
		r.p = logUniform(1, 1<<20)
		r.body = []byte(fmt.Sprintf(`{"problems":[{"n1":%d,"n2":%d,"n3":%d,"p":%d}]}`, r.d.N1, r.d.N2, r.d.N3, r.p))
	case kindGrid:
		dims(64, 8192)
		r.p = logUniform(2, 50000)
		if rng.IntN(2) == 0 {
			r.mem = math.Round(core.D(r.d, r.p) * (1 + 3*rng.Float64()))
		}
		r.body = []byte(fmt.Sprintf(`{"n1":%d,"n2":%d,"n3":%d,"p":%d,"mem":%g}`, r.d.N1, r.d.N2, r.d.N3, r.p, r.mem))
	case kindPredict:
		dims(64, 8192)
		r.cfg = machine.Config{Alpha: float64(1+rng.IntN(9)) * 1e-6, Beta: float64(1+rng.IntN(9)) * 1e-9, Gamma: 1e-11}
		topoBlock := ""
		if rng.IntN(5) == 0 {
			ext := [3]int{2 << rng.IntN(2), 2 << rng.IntN(2), 2 << rng.IntN(2)}
			r.p = ext[0] * ext[1] * ext[2]
			r.spec = fmt.Sprintf("torus=%dx%dx%d", ext[0], ext[1], ext[2])
			topoBlock = fmt.Sprintf(`,"topology":{"spec":%q}`, r.spec)
		} else {
			r.p = logUniform(2, 8192)
		}
		r.body = []byte(fmt.Sprintf(`{"problems":[{"n1":%d,"n2":%d,"n3":%d,"p":%d,"alpha":%g,"beta":%g,"gamma":%g%s}]}`,
			r.d.N1, r.d.N2, r.d.N3, r.p, r.cfg.Alpha, r.cfg.Beta, r.cfg.Gamma, topoBlock))
	case kindBound:
		tmpl := boundPrograms[rng.IntN(len(boundPrograms))]
		ext := []any{logUniform(8, 4096), logUniform(8, 4096), logUniform(8, 4096), logUniform(8, 4096)}
		r.program = fmt.Sprintf(tmpl, ext[:strings.Count(tmpl, "%d")]...)
		r.p = logUniform(2, 4096)
		blob, _ := json.Marshal(r.program)
		r.body = []byte(fmt.Sprintf(`{"problems":[{"program":%s,"p":%d}]}`, blob, r.p))
	case kindPlanStream:
		dims(500, 4000)
		r.p = logUniform(64, 20000)
		r.mem = math.Round(core.D(r.d, r.p) * (1 + 2*rng.Float64()))
		r.body = []byte(fmt.Sprintf(`{"problems":[{"n1":%d,"n2":%d,"n3":%d,"mem":%g,"pMin":%d,"pMax":%d}],"stream":true}`,
			r.d.N1, r.d.N2, r.d.N3, r.mem, r.p, r.p+planStreamPoints-1))
	}
	return r
}

// apiCall is one scheduled request: its due time from the phase start.
type apiCall struct {
	at  time.Duration
	req *apiRequest
}

// apiMixGen builds the schedules: kinds by weight, keys by skew, each
// request built once per key and shared by every call that draws it. Each
// phase draws from its own stream, so a rung's schedule does not depend on
// which rungs ran before it.
type apiMixGen struct {
	seed uint64
	reqs map[[2]int]*apiRequest
}

// Phase ids name the schedule streams.
const (
	phaseWarm    = 1
	phaseRef     = 100  // + segment index
	phaseRung    = 1000 // + ladder index + attempt·phaseAttempt
	phaseAttempt = 100
)

// phase draws a Poisson schedule at rate over span.
func (g *apiMixGen) phase(id uint64, rate float64, span time.Duration) []apiCall {
	rng := newRNG(g.seed, streamAPISchedule<<16|id)
	// Zipf keys: key 0 is the most popular, and the tail is long enough
	// that the bounded memo keeps missing.
	var keys [numKinds]*rand.Zipf
	for k := range keys {
		keys[k] = rand.NewZipf(rng, apiSkew, 1, uint64(kindKeys[k]-1))
	}
	ats := poissonArrivals(rng, rate, span)
	calls := make([]apiCall, len(ats))
	for i, at := range ats {
		u, kind := rng.Float64(), apiKind(0)
		for ; kind < numKinds-1 && u >= kindWeights[kind]; kind++ {
			u -= kindWeights[kind]
		}
		k := int(keys[kind].Uint64())
		r, ok := g.reqs[[2]int{int(kind), k}]
		if !ok {
			r = newAPIRequest(g.seed, kind, k)
			g.reqs[[2]int{int(kind), k}] = r
		}
		calls[i] = apiCall{at: at, req: r}
	}
	return calls
}

// apiRecord is one issued request of a phase; times are from the phase
// start.
type apiRecord struct {
	req             *apiRequest
	due, sent, done time.Duration
	cls             class
	sum             uint64
	reason          string
}

// apiBodies keeps the first answer to every key for the oracle, and a hash
// of every answer: the same key must always get the same bytes.
type apiBodies struct {
	mu    sync.Mutex
	first map[*apiRequest][]byte
}

func (b *apiBodies) keep(r *apiRequest, body []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.first[r]; !ok {
		b.first[r] = bytes.Clone(body)
	}
}

func hashOf(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

// runOpenLoop sends calls at their due times over apiConns connections.
// A request due while both connections are busy waits in the generator,
// and that wait counts in its latency. The phase stops issuing once any
// request waited apiAbortAfter.
func runOpenLoop(d *daemon, calls []apiCall, bodies *apiBodies) (recs []apiRecord, aborted bool) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var next atomic.Int64
	var stop atomic.Bool
	per := make([][]apiRecord, apiConns)
	var span time.Duration
	if len(calls) > 0 {
		span = calls[len(calls)-1].at
	}
	drain := time.AfterFunc(span+drainLimit, cancel)
	defer drain.Stop()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < apiConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := new(bytes.Buffer)
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				call := calls[i]
				if wait := call.at - time.Since(start); wait > 0 {
					preciseSleep(wait)
				}
				rec := apiRecord{req: call.req, due: call.at, sent: time.Since(start)}
				status, cls := d.post(ctx, kindPaths[call.req.kind], call.req.body, buf)
				rec.done, rec.cls = time.Since(start), cls
				switch cls {
				case classOK:
					rec.sum = hashOf(buf.Bytes())
					bodies.keep(call.req, buf.Bytes())
				case classStatus:
					rec.reason = fmt.Sprintf("HTTP %d: %.200s", status, buf.String())
				}
				if rec.done-rec.due > apiAbortAfter {
					stop.Store(true)
				}
				per[c] = append(per[c], rec)
			}
		}(c)
	}
	wg.Wait()
	for _, p := range per {
		recs = append(recs, p...)
	}
	return recs, stop.Load()
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep in an
// otherwise idle Go process wakes up to a millisecond late, which at
// thousands of requests per second would dominate the latency measured
// from the due time; the kernel's high-resolution timer wakes within
// about 0.1 ms.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// phaseStats summarizes one open-loop phase.
type phaseStats struct {
	rate     float64 // offered
	achieved float64 // completed per second
	// p50 is over the whole phase; p95 and p99 are the quietQuantile-th
	// percentiles of the p95s and p99s of equal windows of the phase, so
	// stalls of the shared machine that hit some windows do not move the
	// figure. beyond99 is the
	// fewest samples any window has beyond its p99. Times are ms from due;
	// failures count as +Inf.
	p50, p95   float64
	p99        float64
	beyond99   int
	lateP99    float64 // ms from due to send
	backlogMax int
	backlogEnd int // outstanding when the last request fell due
	failed     int
	aborted    bool
}

func summarizePhase(rate float64, span time.Duration, windows int, recs []apiRecord, aborted bool) phaseStats {
	st := phaseStats{rate: rate, aborted: aborted, beyond99: math.MaxInt}
	var lats, late []float64
	perWindow := make([][]float64, windows)
	var lastDue, lastDone time.Duration
	type ev struct {
		t time.Duration
		d int
	}
	evs := make([]ev, 0, 2*len(recs))
	for _, r := range recs {
		if r.cls == classCutoff {
			continue
		}
		late = append(late, ms(r.sent-r.due))
		lat := math.Inf(1)
		if r.cls == classOK {
			lat = ms(r.done - r.due)
		} else {
			st.failed++
		}
		lats = append(lats, lat)
		w := min(windows-1, int(int64(r.due)*int64(windows)/int64(span)))
		perWindow[w] = append(perWindow[w], lat)
		lastDue, lastDone = max(lastDue, r.due), max(lastDone, r.done)
		evs = append(evs, ev{r.due, 1}, ev{r.done, -1})
	}
	if len(lats) == 0 {
		st.beyond99 = 0
		return st
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t || evs[i].t == evs[j].t && evs[i].d < evs[j].d })
	out := 0
	for _, e := range evs {
		out += e.d
		st.backlogMax = max(st.backlogMax, out)
	}
	for _, r := range recs {
		if r.cls != classCutoff && r.done > lastDue {
			st.backlogEnd++
		}
	}
	var p95s, p99s []float64
	for _, w := range perWindow {
		st.beyond99 = min(st.beyond99, beyond(len(w), 99))
		if len(w) > 0 {
			sw := sortedCopy(w)
			p95s = append(p95s, percentile(sw, 95))
			p99s = append(p99s, percentile(sw, 99))
		}
	}
	st.p50 = percentile(sortedCopy(lats), 50)
	st.p95 = percentile(sortedCopy(p95s), quietQuantile)
	st.p99 = percentile(sortedCopy(p99s), quietQuantile)
	st.lateP99 = percentile(sortedCopy(late), 99)
	st.achieved = float64(len(lats)-st.failed) / lastDone.Seconds()
	return st
}

// meets reports whether a rung holds the latency limit with enough samples
// and without a growing backlog: at its end no more requests are
// outstanding than the connections plus what the limit lets queue.
func (st phaseStats) meets() bool {
	queueable := apiConns + int(st.rate*apiLimit.Seconds())
	return !st.aborted && st.failed == 0 && st.beyond99 >= minBeyond &&
		st.p99 <= ms(apiLimit) && st.backlogEnd <= queueable
}

func (b *bench) apiMix() (*report, error) {
	// The generator shares the cores with parmmd; collecting its garbage
	// less often keeps its own pauses out of the latencies it measures.
	debug.SetGCPercent(400)
	warmSpan, segSpan, rungSpan := b.seconds/15, b.seconds*6/15/refSegments, b.seconds/20
	gen := &apiMixGen{seed: b.seed, reqs: make(map[[2]int]*apiRequest)}
	var warm []apiCall
	var segs [refSegments][]apiCall
	d, setup, err := b.setupDaemon(apiConns, func() error {
		warm = gen.phase(phaseWarm, apiRefRate, warmSpan)
		for i := range segs {
			segs[i] = gen.phase(phaseRef+uint64(i), apiRefRate, segSpan)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	bodies := &apiBodies{first: make(map[*apiRequest][]byte)}
	var all []apiRecord
	run := func(calls []apiCall, rate float64, span time.Duration, windows int) phaseStats {
		recs, aborted := runOpenLoop(d, calls, bodies)
		all = append(all, recs...)
		return summarizePhase(rate, span, windows, recs, aborted)
	}
	// rung runs ladder step i up to rungAttempts times, each on a fresh
	// schedule, until it passes: a burst of interference from outside the
	// benchmark can fail a rung the program sustains, while a rate past
	// its capacity fails every attempt.
	rung := func(i, attempts int) (st phaseStats, runs int) {
		for attempt := uint64(0); attempt < uint64(attempts); attempt++ {
			runs++
			rate := apiLadder[i]
			// Slow rungs run long enough for every window to have
			// minBeyond samples beyond its p99.
			need := time.Duration(float64(rungWindows*(100*minBeyond+10)) / rate * float64(time.Second))
			span := max(rungSpan, need)
			st = run(gen.phase(phaseRung+attempt*phaseAttempt+uint64(i), rate, span), rate, span, rungWindows)
			fmt.Printf("api-mix rung %.0f/s: achieved %.1f/s p50 %.3f ms p99 %.3f ms late p99 %.3f ms backlog max %d end %d failed %d aborted %v\n",
				st.rate, st.achieved, st.p50, st.p99, st.lateP99, st.backlogMax, st.backlogEnd, st.failed, st.aborted)
			if st.meets() {
				break
			}
		}
		return st, runs
	}

	run(warm, apiRefRate, warmSpan, 1)
	// The reference segments run back to back before the climb, so the
	// saturating rungs cannot leave their after-effects in them.
	var ref []phaseStats
	for _, seg := range segs {
		st := run(seg, apiRefRate, segSpan, 1)
		fmt.Printf("api-mix reference segment %d: p50 %.3f ms p95 %.3f ms p99 %.3f ms late p99 %.3f ms\n", len(ref), st.p50, st.p95, st.p99, st.lateP99)
		ref = append(ref, st)
	}
	best := -1.0
	c := newClimb()
	for runs := 0; c.rung() >= 0; {
		// Below a failing start every lower rung is another try, so
		// each runs once; that walk is not capped, so a run in a long
		// stall of the machine still ends on a passing rung.
		attempts := rungAttempts
		if c.mode == climbDown {
			attempts = 1
		}
		st, n := rung(c.rung(), attempts)
		if st.meets() {
			best = max(best, st.achieved)
		}
		c.record(st.meets())
		if runs += n; runs >= maxRungRuns && best >= 0 {
			fmt.Printf("api-mix: climb stopped after %d rung runs\n", runs)
			break
		}
	}
	rss := d.stop()

	rep := newReport()
	checkAPIRecords(all, bodies, &rep.tally)
	var p50s, p95s, p99s, lates []float64
	fewest, backlog := math.MaxInt, 0
	for _, st := range ref {
		p50s, p95s, p99s = append(p50s, st.p50), append(p95s, st.p95), append(p99s, st.p99)
		lates = append(lates, st.lateP99)
		fewest, backlog = min(fewest, st.beyond99), max(backlog, st.backlogMax)
	}
	if fewest < minBeyond {
		return rep, fmt.Errorf("api-mix: a reference segment's p99 has %d samples beyond it, need %d; run longer",
			fewest, minBeyond)
	}
	if best < 0 {
		return rep, fmt.Errorf("api-mix: no rung of the climb met p99 ≤ %v", apiLimit)
	}
	// The compared tail is p95: on the shared two-core machine the p99 at
	// the reference rate moved by about 30% between runs of the same
	// code, p95 by about 10%. p99 still judges the rungs and is printed.
	quiet := func(v []float64) float64 { return percentile(sortedCopy(v), quietQuantile) }
	rep.e2e([3]string{"api_p50_ms", "api_p95_ms", "api_max_rps"}, quiet(p50s), quiet(p95s), best, setup, rss)
	rep.note("api_p99_ms %.6g ms (printed, not compared)", quiet(p99s))
	rep.note("api-mix: reference %.0f/s in %d segments of %v, p%d over segments (medians: p50 %.4g ms, p95 %.4g ms); each segment has ≥ %d samples beyond its p99; generator late p99 %.3f ms (median over segments), backlog max %d",
		apiRefRate, refSegments, segSpan, quietQuantile, median(p50s), median(p95s), fewest, median(lates), backlog)
	return rep, nil
}

// checkAPIRecords classifies every record: transport and status failures
// as they came, answers by the oracle (each key's first answer is
// recomputed from direct library calls, and every later answer to the key
// must be byte-identical to it).
func checkAPIRecords(recs []apiRecord, bodies *apiBodies, t *tally) {
	verdict := make(map[*apiRequest]error, len(bodies.first))
	firstSum := make(map[*apiRequest]uint64, len(bodies.first))
	for r, body := range bodies.first {
		verdict[r] = checkAPIAnswer(r, body)
		firstSum[r] = hashOf(body)
	}
	reported := 0
	for _, rec := range recs {
		cls, reason := rec.cls, rec.reason
		if cls == classOK {
			if err := verdict[rec.req]; err != nil {
				cls, reason = classWrong, err.Error()
			} else if rec.sum != firstSum[rec.req] {
				cls, reason = classWrong, "answer differs from an earlier answer to the same request"
			}
		}
		t.add(cls)
		if cls != classOK && cls != classCutoff && reported < 10 {
			reported++
			fmt.Printf("api-mix: %s key %d: %v %s\n", kindNames[rec.req.kind], rec.req.key, cls, reason)
		}
	}
}

// checkAPIAnswer recomputes one answer from direct core, grid, model, topo
// and hbl calls and compares it field by field.
func checkAPIAnswer(r *apiRequest, body []byte) error {
	switch r.kind {
	case kindLowerBound:
		var env service.Envelope[service.LowerBoundResponse]
		if err := json.Unmarshal(body, &env); err != nil {
			return err
		}
		if len(env.Results) != 1 || env.Results[0] == nil {
			return fmt.Errorf("lowerbound: %d results, errors %v", len(env.Results), env.Errors)
		}
		got := env.Results[0]
		if got.Bound != core.LowerBound(r.d, r.p) || got.Footprint != core.D(r.d, r.p) ||
			got.Case != int(core.CaseOf(r.d, r.p)) || got.LeadingTerm != core.LeadingTerm(r.d, r.p) {
			return fmt.Errorf("lowerbound %v P=%d: got bound %v case %d, want %v case %d",
				r.d, r.p, got.Bound, got.Case, core.LowerBound(r.d, r.p), core.CaseOf(r.d, r.p))
		}
	case kindGrid:
		var got service.GridResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		g := grid.Optimal(r.d, r.p)
		if (got.Optimal != service.GridJSON{P1: g.P1, P2: g.P2, P3: g.P3}) ||
			got.CommCost != grid.CommCost(r.d, g) || got.MemoryCost != grid.MemoryCost(r.d, g) ||
			got.RatioToBound != grid.CommCost(r.d, g)/core.LowerBound(r.d, r.p) {
			return fmt.Errorf("grid %v P=%d: got %v cost %v, want %v cost %v", r.d, r.p, got.Optimal, got.CommCost, g, grid.CommCost(r.d, g))
		}
		if r.mem > 0 {
			um, ok := grid.OptimalUnderMemory(r.d, r.p, r.mem)
			if got.UnderMemoryFits != ok || ok && (got.UnderMemory == nil ||
				*got.UnderMemory != service.GridJSON{P1: um.P1, P2: um.P2, P3: um.P3}) {
				return fmt.Errorf("grid %v P=%d mem %g: got under-memory %v, want %v (fits %v)", r.d, r.p, r.mem, got.UnderMemory, um, ok)
			}
		}
	case kindPredict:
		var env service.Envelope[service.PredictResponse]
		if err := json.Unmarshal(body, &env); err != nil {
			return err
		}
		if len(env.Results) != 1 || env.Results[0] == nil {
			return fmt.Errorf("predict: %d results, errors %v", len(env.Results), env.Errors)
		}
		got := env.Results[0]
		g := grid.Optimal(r.d, r.p)
		if (got.Grid != service.GridJSON{P1: g.P1, P2: g.P2, P3: g.P3}) {
			return fmt.Errorf("predict %v P=%d: grid %v, want %v", r.d, r.p, got.Grid, g)
		}
		if r.spec == "" {
			pred := model.Alg1Time(r.d, g, r.cfg, collective.Auto)
			if got.Total != pred.Total() || got.Words != pred.Words || got.Messages != pred.Messages {
				return fmt.Errorf("predict %v P=%d: total %v, want %v", r.d, r.p, got.Total, pred.Total())
			}
			return nil
		}
		pred, err := topoPredict(r, g)
		if err != nil {
			return err
		}
		if got.Total != pred.Total() || got.FlatTotal != pred.FlatTotal || got.Slowdown != pred.Slowdown {
			return fmt.Errorf("predict %v P=%d on %s: total %v, want %v", r.d, r.p, r.spec, got.Total, pred.Total())
		}
	case kindBound:
		var env service.Envelope[service.BoundResponse]
		if err := json.Unmarshal(body, &env); err != nil {
			return err
		}
		if len(env.Results) != 1 || env.Results[0] == nil {
			return fmt.Errorf("bound: %d results, errors %v", len(env.Results), env.Errors)
		}
		got := env.Results[0]
		prog, err := hbl.ParseProgram(r.program)
		if err != nil {
			return err
		}
		want, err := hbl.MemIndependentBound(prog, r.p)
		if err != nil {
			return err
		}
		if got.Bound != want.LowerBound || got.Footprint != want.Footprint ||
			got.SigmaExact != want.Exponents.Sigma.RatString() || got.FreeArrays != want.FreeArrays {
			return fmt.Errorf("bound %q P=%d: got %v (σ %s), want %v (σ %s)", r.program, r.p,
				got.Bound, got.SigmaExact, want.LowerBound, want.Exponents.Sigma.RatString())
		}
	case kindPlanStream:
		return checkPlanStream(r, body)
	}
	return nil
}

// topoPredict is the direct call chain behind a topology predict.
func topoPredict(r *apiRequest, g grid.Grid) (model.TopoPrediction, error) {
	fabric, err := topo.Parse(r.spec, r.p, topo.Link{Alpha: r.cfg.Alpha, Beta: r.cfg.Beta})
	if err != nil {
		return model.TopoPrediction{}, err
	}
	pl, err := topo.Map(g, fabric, topo.Contiguous)
	if err != nil {
		return model.TopoPrediction{}, err
	}
	net, err := topo.NewNetwork(fabric, pl)
	if err != nil {
		return model.TopoPrediction{}, err
	}
	return model.Alg1TimeTopo(r.d, g, r.cfg, collective.Auto, net)
}

// checkPlanStream checks an NDJSON plan stream: a summary row, one point
// row per P in order, each equal to direct bound and grid calls, and the
// final done row.
func checkPlanStream(r *apiRequest, body []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	rows := 0
	done := false
	for sc.Scan() {
		var row service.PlanRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return err
		}
		switch {
		case done:
			return errors.New("plan stream: rows after the done row")
		case row.Done:
			done = true
		case row.Error != nil:
			return fmt.Errorf("plan stream: error row %s", row.Error.Message)
		case rows == 0 && row.Summary == nil:
			return errors.New("plan stream: first row is not the summary")
		case rows > 0:
			if row.Point == nil {
				return errors.New("plan stream: expected a point row")
			}
			if err := samePlanPoint(*row.Point, r.d, r.mem, r.p+rows-1); err != nil {
				return err
			}
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !done || rows != planStreamPoints+2 {
		return fmt.Errorf("plan stream: %d rows (done %v), want %d", rows, done, planStreamPoints+2)
	}
	return nil
}

// samePlanPoint re-encodes a decoded point and checks it like a scanned
// inline one.
func samePlanPoint(pt plan.Point, d core.Dims, mem float64, p int) error {
	raw, err := json.Marshal(pt)
	if err != nil {
		return err
	}
	return checkPlanPoint(raw, d, mem, p)
}
