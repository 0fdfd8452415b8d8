package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/algs"
	"repro/internal/benchrec"
	"repro/internal/collective"
	"repro/internal/grid"
	"repro/internal/hbl"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/topo"
)

// The traced run. It replays the inputs each workload generates from the
// seed through the public functions of every layer, with spans recorded
// around those calls in this file only, and reports per-layer times, the
// residual the layers leave unexplained, and the tracing overhead (traced
// minus untraced time of the same operation). Every traced run replays all
// three workloads, whatever --workload names, because every traced run
// reports every per-layer metric.
const (
	// tracePlanRequests is how many cold plan requests are replayed.
	tracePlanRequests = 12
	// traceAPICalls is how many calls of the api-mix reference schedule
	// are replayed in process: the first half warms the memo as the run's
	// warm-up does, the second half is timed.
	traceAPICalls = 8000
	// traceAPISpan is the open-loop run against parmmd that measures the
	// generator and the end-to-end latency the handler times account for.
	traceAPISpan = 4 * time.Second
	// traceLargeRepeats is how often each P=4096 world is replayed.
	traceLargeRepeats = 3
)

func (b *bench) traced() (*report, error) {
	rep := newReport()
	rec := newRecorder()
	d, err := startDaemon(b.parmmd, filepath.Join(b.outDir, "parmmd-trace.log"), apiConns)
	if err != nil {
		return nil, err
	}
	err = b.tracePlan(rec, rep, d)
	if err == nil {
		err = b.traceAPI(rec, rep, d)
	}
	d.stop()
	if err == nil {
		err = b.traceSim(rec, rep)
	}
	if err != nil {
		return rep, err
	}
	path := filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.json", b.workload, b.seed))
	if err := rec.writeFile(path); err != nil {
		return nil, err
	}
	rep.note("spans written to %s", path)
	return rep, nil
}

// gcSample reads the runtime counters the plan handler's allocation and GC
// share are computed from.
type gcSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSample{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// serve runs one request through a server's handler in process.
func serve(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w
}

// memoPoint is the memo value of one plan point, shaped as the server
// caches it.
type memoPoint struct {
	pt  plan.Point
	err error
}

// replayPlan runs one cold plan request the way the handler does — the
// sweep through a fresh memo wired as the server wires it, then the inline
// envelope encode — recording spans when rec is non-nil. It returns the
// sweep and encode durations, the summed time inside compute closures, and
// the encoded body.
func replayPlan(rec *recorder, op int64, in planInput) (sweep, encode, compute time.Duration, body []byte, err error) {
	cache := service.NewCache(0)
	var sweepID int64
	var mu sync.Mutex
	pl := plan.Planner{PointMemo: func(key string, fn func() (plan.Point, error)) (plan.Point, error) {
		r := cache.GetOrCompute("pp:"+key, func() any {
			var id int64
			if rec != nil {
				id = rec.open()
			}
			start := time.Now()
			pt, err := fn()
			end := time.Now()
			if rec != nil {
				rec.record(id, sweepID, op, "plan.point_compute", start, end)
			}
			mu.Lock()
			compute += end.Sub(start)
			mu.Unlock()
			return memoPoint{pt, err}
		}).(memoPoint)
		return r.pt, r.err
	}}
	req := plan.Request{Dims: in.d, Mem: in.mem, PMin: in.pMin, PMax: in.pMin + planPoints - 1, MaxPoints: 1 << 20}
	var sum plan.Summary
	var pts []plan.Point
	step := func(name string, fn func()) time.Duration {
		if rec == nil {
			start := time.Now()
			fn()
			return time.Since(start)
		}
		id := rec.open()
		if name == "plan.sweep" {
			sweepID = id
		}
		start := time.Now()
		fn()
		end := time.Now()
		rec.record(id, 0, op, name, start, end)
		return end.Sub(start)
	}
	sweep = step("plan.sweep", func() { sum, pts, err = pl.Run(context.Background(), req) })
	if err != nil {
		return
	}
	var buf bytes.Buffer
	encode = step("service.plan_encode", func() {
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		err = enc.Encode(service.PlanEnvelope{Results: []*service.PlanResult{{Summary: sum, Points: pts}}})
	})
	return sweep, encode, compute, buf.Bytes(), err
}

// checkPlanBody applies the plan-cold oracle to one inline envelope.
func checkPlanBody(body []byte, in planInput) error {
	picked, err := scanPlanEnvelope(body, in.pMin, in.picks)
	if err != nil {
		return err
	}
	for j, idx := range in.picks {
		if err := checkPlanPoint(picked[j], in.d, in.mem, in.pMin+idx); err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) tracePlan(rec *recorder, rep *report, d *daemon) error {
	inputs, err := planInputs(b.seed, tracePlanRequests)
	if err != nil {
		return err
	}
	var e2e, handler, sweep, encode, compute, traced, untraced, search, bytesOut []float64
	var gcDelta gcSample
	verdict := func(err error) {
		if err != nil {
			rep.tally.add(classWrong)
			fmt.Printf("trace plan-cold: %v\n", err)
			return
		}
		rep.tally.add(classOK)
	}
	buf := new(bytes.Buffer)
	for i, in := range inputs {
		op := int64(i + 1)
		// End to end through parmmd, one client, nothing else running.
		start := time.Now()
		status, cls := d.post(context.Background(), "/v1/plan", in.body, buf)
		lat := time.Since(start)
		if cls == classOK {
			verdict(checkPlanBody(buf.Bytes(), in))
		} else {
			rep.tally.add(cls)
			fmt.Printf("trace plan-cold: parmmd answered %d (%v)\n", status, cls)
		}
		e2e = append(e2e, ms(lat))

		// The handler in process, on a fresh server so every point is cold.
		srv := service.New(service.Config{})
		h := srv.Handler()
		g0 := readGC()
		var w *httptest.ResponseRecorder
		hd := rec.timed(0, op, "service.plan_handler", func() { w = serve(h, "/v1/plan", in.body) })
		g1 := readGC()
		_ = srv.Shutdown(context.Background())
		gcDelta.allocBytes += g1.allocBytes - g0.allocBytes
		gcDelta.gcCPU += g1.gcCPU - g0.gcCPU
		gcDelta.totalCPU += g1.totalCPU - g0.totalCPU
		handler = append(handler, ms(hd))
		if w.Code != http.StatusOK {
			rep.tally.add(classStatus)
		} else {
			verdict(checkPlanBody(w.Body.Bytes(), in))
		}

		// The layers the handler calls, traced and untraced, alternating
		// which goes first.
		var tSweep, tEncode, tCompute, uSweep, uEncode time.Duration
		var body []byte
		runTraced := func() {
			tSweep, tEncode, tCompute, body, err = replayPlan(rec, op, in)
		}
		runUntraced := func() {
			uSweep, uEncode, _, _, err = replayPlan(nil, op, in)
		}
		if i%2 == 0 {
			runTraced()
			if err == nil {
				runUntraced()
			}
		} else {
			runUntraced()
			if err == nil {
				runTraced()
			}
		}
		if err != nil {
			return fmt.Errorf("trace plan-cold: replay: %w", err)
		}
		verdict(checkPlanBody(body, in))
		sweep = append(sweep, ms(tSweep))
		encode = append(encode, ms(tEncode))
		compute = append(compute, ms(tCompute))
		bytesOut = append(bytesOut, float64(len(body)))
		traced = append(traced, ms(tSweep+tEncode))
		untraced = append(untraced, ms(uSweep+uEncode))

		search = append(search, ms(rec.timed(0, op, "grid.search", func() {
			for p := in.pMin; p < in.pMin+planPoints; p++ {
				grid.OptimalUnderMemory(in.d, p, in.mem)
			}
		})))
	}
	// The memo's self time is the sweep span minus the compute spans
	// under it.
	self := selfByName(rec.spans)
	memo := ms(self["plan.sweep"]) / float64(len(inputs))

	n := float64(len(inputs))
	rep.set("service.plan_handler_ms", "ms", mean(handler))
	rep.set("transport.plan_ms", "ms", mean(e2e)-mean(handler))
	rep.set("service.plan_encode_ms", "ms", mean(encode))
	rep.set("service.plan_response_bytes", "bytes", mean(bytesOut))
	rep.set("plan.sweep_ms", "ms", mean(sweep))
	rep.set("plan.point_compute_ms", "ms", mean(compute))
	rep.set("service.memo_ms", "ms", memo)
	rep.set("grid.search_ms", "ms", mean(search))
	rep.set("runtime.plan_alloc_mb", "MB", gcDelta.allocBytes/n/(1<<20))
	gcFrac := 0.0
	if gcDelta.totalCPU > 0 {
		gcFrac = gcDelta.gcCPU / gcDelta.totalCPU
	}
	rep.set("runtime.plan_gc_cpu_frac", "ratio", gcFrac)
	// The handler's own time (decode, validation, admission, writing the
	// response) is what its untraced layers leave; the traced layer times
	// add the tracing overhead on top.
	residual := mean(handler) - mean(untraced)
	overhead := mean(traced) - mean(untraced)
	rep.set("trace.e2e_ms.plan_cold", "ms", mean(e2e))
	rep.set("trace.residual_ms.plan_cold", "ms", residual)
	rep.set("trace.overhead_ms.plan_cold", "ms", overhead)
	rep.note("plan-cold accounting (mean of %d requests, ms): e2e %.3f = transport %.3f + handler residual %.3f + memo self %.3f + compute under the sweep %.3f + encode %.3f - tracing overhead %.3f",
		len(inputs), mean(e2e), mean(e2e)-mean(handler), residual, memo, mean(sweep)-memo, mean(encode), overhead)
	return nil
}

func (b *bench) traceAPI(rec *recorder, rep *report, d *daemon) error {
	gen := &apiMixGen{seed: b.seed, reqs: make(map[[2]int]*apiRequest)}
	calls := gen.phase(phaseRef, apiRefRate, time.Duration(float64(traceAPICalls)/apiRefRate*float64(time.Second))+time.Second)
	if len(calls) > traceAPICalls {
		calls = calls[:traceAPICalls]
	}
	warm, timed := calls[:len(calls)/2], calls[len(calls)/2:]

	// Two in-process servers warmed identically; one replays the timed
	// half under spans, the other without, for the overhead.
	var perKind [numKinds][]float64
	var tracedTotal, untracedTotal time.Duration
	var hits, lookups int64
	verdicts := map[*apiRequest]error{}
	for pass := 0; pass < 2; pass++ {
		srv := service.New(service.Config{})
		h := srv.Handler()
		for _, c := range warm {
			serve(h, kindPaths[c.req.kind], c.req.body)
		}
		h0, m0 := srv.Cache().Stats()
		for i, c := range timed {
			var w *httptest.ResponseRecorder
			var dur time.Duration
			if pass == 0 {
				dur = rec.timed(0, int64(1000000+i), "service.api_handler."+kindNames[c.req.kind], func() {
					w = serve(h, kindPaths[c.req.kind], c.req.body)
				})
				tracedTotal += dur
				perKind[c.req.kind] = append(perKind[c.req.kind], us(dur))
			} else {
				start := time.Now()
				w = serve(h, kindPaths[c.req.kind], c.req.body)
				untracedTotal += time.Since(start)
			}
			if w.Code != http.StatusOK {
				rep.tally.add(classStatus)
				continue
			}
			v, seen := verdicts[c.req]
			if !seen {
				v = checkAPIAnswer(c.req, w.Body.Bytes())
				verdicts[c.req] = v
			}
			if v != nil {
				rep.tally.add(classWrong)
				fmt.Printf("trace api-mix: %v\n", v)
				continue
			}
			rep.tally.add(classOK)
		}
		if pass == 0 {
			h1, m1 := srv.Cache().Stats()
			hits, lookups = h1-h0, (h1-h0)+(m1-m0)
		}
		_ = srv.Shutdown(context.Background())
	}
	handlerMean := 0.0
	for k, v := range perKind {
		rep.set("service.api_handler_us."+kindNames[k], "us", mean(v))
		handlerMean += mean(v) * float64(len(v)) / float64(len(timed))
	}
	if lookups > 0 {
		rep.set("service.memo_hit_ratio", "ratio", float64(hits)/float64(lookups))
	}

	// The layers behind the handlers, called directly on the timed half's
	// distinct requests.
	var parse, solve, flat, torus []float64
	done := map[*apiRequest]bool{}
	for _, c := range timed {
		r := c.req
		if done[r] {
			continue
		}
		done[r] = true
		switch {
		case r.kind == kindBound:
			var prog hbl.Program
			var err error
			parse = append(parse, us(rec.timed(0, 0, "hbl.parse", func() { prog, err = hbl.ParseProgram(r.program) })))
			if err != nil {
				return fmt.Errorf("trace api-mix: %w", err)
			}
			solve = append(solve, us(rec.timed(0, 0, "hbl.solve", func() {
				if _, err = hbl.Solve(prog); err == nil {
					_, err = hbl.MemIndependentBound(prog, r.p)
				}
			})))
			if err != nil {
				return fmt.Errorf("trace api-mix: %w", err)
			}
		case r.kind == kindPredict && r.spec == "":
			g := grid.Optimal(r.d, r.p)
			flat = append(flat, us(rec.timed(0, 0, "model.predict", func() { model.Alg1Time(r.d, g, r.cfg, collective.Auto) })))
		case r.kind == kindPredict:
			g := grid.Optimal(r.d, r.p)
			var err error
			torus = append(torus, us(rec.timed(0, 0, "topo.predict", func() { _, err = topoPredict(r, g) })))
			if err != nil {
				return fmt.Errorf("trace api-mix: %w", err)
			}
		}
	}
	rep.set("hbl.parse_us", "us", mean(parse))
	rep.set("hbl.solve_us", "us", mean(solve))
	rep.set("model.predict_us", "us", mean(flat))
	rep.set("topo.predict_us", "us", mean(torus))

	// The generator against parmmd at the reference rate: how late it
	// ran, how far the backlog grew, and the end-to-end time the handler
	// accounts for.
	bodies := &apiBodies{first: make(map[*apiRequest][]byte)}
	runOpenLoop(d, gen.phase(phaseWarm, apiRefRate, traceAPISpan/2), bodies)
	recs, aborted := runOpenLoop(d, gen.phase(phaseRef, apiRefRate, traceAPISpan), bodies)
	checkAPIRecords(recs, bodies, &rep.tally)
	st := summarizePhase(apiRefRate, traceAPISpan, 1, recs, aborted)
	var e2e, wait []float64
	for _, r := range recs {
		if r.cls == classOK {
			e2e = append(e2e, ms(r.done-r.due))
			wait = append(wait, ms(r.sent-r.due))
		}
	}
	rep.set("loadgen.late_p99_ms", "ms", st.lateP99)
	rep.set("loadgen.backlog_max", "count", float64(st.backlogMax))
	residual := mean(e2e) - mean(wait) - handlerMean/1000
	rep.set("trace.e2e_ms.api_mix", "ms", mean(e2e))
	rep.set("trace.residual_ms.api_mix", "ms", residual)
	rep.set("trace.overhead_ms.api_mix", "ms", ms(tracedTotal-untracedTotal)/float64(len(timed)))
	rep.note("api-mix accounting (mean per request, ms): e2e %.4f = generator wait %.4f + handler %.4f + residual (sockets, HTTP plumbing, scheduling) %.4f; memo hit ratio %d/%d",
		mean(e2e), mean(wait), handlerMean/1000, residual, hits, lookups)
	return nil
}

// alg1Comm is Algorithm 1's communication alone: the A and B All-Gathers
// and the C Reduce-Scatter over the grid's fibers, moving the same word
// counts as the real run, with no packing and no local multiply.
func alg1Comm(w world, g grid.Grid) (time.Duration, error) {
	start := time.Now()
	m, err := machine.New(w.p, machine.BandwidthOnly())
	if err != nil {
		return 0, err
	}
	shares := func(r *machine.Rank, total, parts int) []int {
		c := r.GetInts(parts)
		for i := range c {
			c[i] = matrix.PartSize(total, parts, i)
		}
		return c
	}
	err = m.Run(func(r *machine.Rank) {
		i1, i2, i3 := g.Coords(r.ID())
		rows, inner, cols := matrix.PartSize(w.d.N1, g.P1, i1), matrix.PartSize(w.d.N2, g.P2, i2), matrix.PartSize(w.d.N3, g.P3, i3)
		gather := func(words, parts, me int, axis grid.Axis, tag int) {
			counts := shares(r, words, parts)
			members := g.FiberInto(r.GetInts(parts), r.ID(), axis)
			var grp collective.Group
			grp.Init(r, members, tag, collective.Auto)
			mine := r.GetBuffer(counts[me])
			out := grp.AllGatherVInto(mine, counts, r.GetBuffer(words))
			grp.Release()
			r.PutBuffer(out)
			r.PutBuffer(mine)
			r.PutInts(members)
			r.PutInts(counts)
		}
		gather(rows*inner, g.P3, i3, grid.Axis3, 1)
		gather(inner*cols, g.P1, i1, grid.Axis1, 2)
		counts := shares(r, rows*cols, g.P2)
		members := g.FiberInto(r.GetInts(g.P2), r.ID(), grid.Axis2)
		var grp collective.Group
		grp.Init(r, members, 3, collective.Auto)
		partial := r.GetBuffer(rows * cols)
		grp.ReduceScatterV(partial, counts)
		grp.Release()
		r.PutBuffer(partial)
		r.PutInts(members)
		r.PutInts(counts)
	})
	return time.Since(start), err
}

// localMuls times every rank's local product A_{i1,i2}·B_{i2,i3}, spread
// over GOMAXPROCS goroutines as the engine spreads ranks; the blocks are
// packed beforehand, as Algorithm 1 has them after its gathers.
func localMuls(w world, g grid.Grid) time.Duration {
	type job struct{ a, b matrix.Dense }
	jobs := make([]job, w.p)
	for rank := range jobs {
		i1, i2, i3 := g.Coords(rank)
		av := matrix.BlockView(w.a, g.P1, g.P2, i1, i2)
		bv := matrix.BlockView(w.b, g.P2, g.P3, i2, i3)
		jobs[rank] = job{
			matrix.Wrap(av.Rows(), av.Cols(), av.PackInto(make([]float64, av.Size()))),
			matrix.Wrap(bv.Rows(), bv.Cols(), bv.PackInto(make([]float64, bv.Size()))),
		}
	}
	workers := runtime.GOMAXPROCS(0)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var buf []float64
			for rank := k; rank < len(jobs); rank += workers {
				j := jobs[rank]
				if n := j.a.Rows() * j.b.Cols(); cap(buf) < n {
					buf = make([]float64, n)
				}
				c := matrix.Wrap(j.a.Rows(), j.b.Cols(), buf[:j.a.Rows()*j.b.Cols()])
				matrix.MulIntoVal(c, j.a, j.b, 0)
			}
		}(k)
	}
	wg.Wait()
	return time.Since(start)
}

func (b *bench) traceSim(rec *recorder, rep *report) error {
	entry, err := algs.Lookup("Alg1")
	if err != nil {
		return err
	}
	worlds := simWorlds(b.seed)
	type acc struct{ alg1, stress, comm, mul []float64 }
	classes := map[string]*acc{"small": {}, "large": {}, "torus": {}}
	var traced, untraced []float64
	var e2e, comms, muls []float64
	for wi, w := range worlds {
		opts, err := simOpts(w)
		if err != nil {
			return err
		}
		repeats := 1
		if w.p == largeP {
			repeats = traceLargeRepeats
		}
		a := classes[w.class]
		for rpt := 0; rpt < repeats; rpt++ {
			op := int64(2000000 + wi*10 + rpt)
			var res *algs.Result
			run := func() error {
				r, err := entry.Run(w.a, w.b, w.p, opts)
				if err == nil {
					err = checkWorld(w, r)
				}
				res = r
				return err
			}
			// Traced and untraced runs alternate which goes first.
			var errU, errT error
			var u, t time.Duration
			untracedRun := func() {
				start := time.Now()
				errU = run()
				u = time.Since(start)
			}
			if (wi+rpt)%2 == 0 {
				untracedRun()
			}
			t = rec.timed(0, op, "algs.alg1", func() { errT = run() })
			if (wi+rpt)%2 == 1 {
				untracedRun()
			}
			for _, err := range []error{errU, errT} {
				if err != nil {
					rep.tally.add(classWrong)
					fmt.Printf("trace simulate: %v\n", err)
				} else {
					rep.tally.add(classOK)
				}
			}
			if errU != nil || errT != nil {
				continue
			}
			untraced = append(untraced, ms(u))
			traced = append(traced, ms(t))
			a.alg1 = append(a.alg1, ms(u))
			if w.class == "large" && rpt == 0 {
				rep.set("machine.msgs", "count", float64(res.Stats.TotalMessages))
				rep.set("machine.words", "count", res.Stats.TotalWordsSent)
			}
			if w.class == "torus" {
				continue
			}
			g := res.Grid
			var commErr error
			comm := rec.timed(0, op, "collective.alg1_comm", func() { _, commErr = alg1Comm(w, g) })
			if commErr != nil {
				return fmt.Errorf("trace simulate: %w", commErr)
			}
			mul := rec.timed(0, op, "matrix.local_mul", func() { localMuls(w, g) })
			var stressErr error
			stress := rec.timed(0, op, "machine.stress", func() {
				var m *machine.World
				if m, stressErr = machine.New(w.p, machine.BandwidthOnly()); stressErr == nil {
					stressErr = m.Run(benchrec.ScalingBody(w.p, benchrec.ScalingRounds))
				}
			})
			if stressErr != nil {
				return fmt.Errorf("trace simulate: %w", stressErr)
			}
			a.comm = append(a.comm, ms(comm))
			a.mul = append(a.mul, ms(mul))
			a.stress = append(a.stress, ms(stress))
			e2e = append(e2e, ms(u))
			comms = append(comms, ms(comm))
			muls = append(muls, ms(mul))
		}
	}
	for _, class := range []string{"small", "large"} {
		a := classes[class]
		rep.set("algs.alg1_ms."+class, "ms", mean(a.alg1))
		rep.set("machine.stress_ms."+class, "ms", mean(a.stress))
		rep.set("collective.alg1_comm_ms."+class, "ms", mean(a.comm))
		rep.set("matrix.local_mul_ms."+class, "ms", mean(a.mul))
		rep.set("algs.residual_ms."+class, "ms", mean(a.alg1)-mean(a.comm)-mean(a.mul))
	}
	rep.set("algs.alg1_ms.torus", "ms", mean(classes["torus"].alg1))

	// The torus charge oracle: its build for P=4096, then the price of
	// one message, over every ordered pair of Algorithm 1's fibers.
	fabric, err := topo.Parse(largeTopo, largeP, topo.Link{Alpha: 0, Beta: 1})
	if err != nil {
		return err
	}
	var net *topo.Network
	build := rec.timed(0, 0, "topo.network_build", func() {
		var pl topo.Placement
		if pl, err = topo.PlaceRanks(largeP, fabric, topo.Contiguous); err == nil {
			net, err = topo.NewNetwork(fabric, pl)
		}
	})
	if err != nil {
		return err
	}
	g := grid.Optimal(worlds[len(worlds)-1].d, largeP)
	charges := 0
	charge := rec.timed(0, 0, "topo.charge", func() {
		for r := 0; r < largeP; r++ {
			for _, axis := range []grid.Axis{grid.Axis1, grid.Axis2, grid.Axis3} {
				for _, q := range g.Fiber(r, axis) {
					if q != r {
						net.Charge(r, q)
						charges++
					}
				}
			}
		}
	})
	rep.set("topo.network_build_ms", "ms", ms(build))
	rep.set("topo.charge_ns", "ns", float64(charge)/float64(charges))

	residual := mean(e2e) - mean(comms) - mean(muls)
	rep.set("trace.e2e_ms.simulate", "ms", mean(e2e))
	rep.set("trace.residual_ms.simulate", "ms", residual)
	rep.set("trace.overhead_ms.simulate", "ms", mean(traced)-mean(untraced))
	rep.note("simulate accounting (mean per flat world, ms): alg1 %.3f = collectives %.3f + local multiplies %.3f + residual (packing, assembly, engine start) %.3f",
		mean(e2e), mean(comms), mean(muls), residual)
	return nil
}
