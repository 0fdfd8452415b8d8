package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

func TestClassify(t *testing.T) {
	transportErr := errors.New("connection reset")
	for _, c := range []struct {
		name   string
		ctxErr error
		err    error
		status int
		want   class
	}{
		{"ok", nil, nil, 200, classOK},
		{"overloaded", nil, nil, 503, classStatus},
		{"bad request", nil, nil, 400, classStatus},
		{"redirect", nil, nil, 302, classStatus},
		{"transport", nil, transportErr, 0, classTransport},
		{"cut off by the benchmark's deadline", context.Canceled, transportErr, 0, classCutoff},
		{"cut off while reading the body", context.Canceled, transportErr, 200, classCutoff},
		{"answered before the deadline", context.Canceled, nil, 200, classOK},
	} {
		if got := classify(c.ctxErr, c.err, c.status); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTallyExcludesCutoffs(t *testing.T) {
	var tl tally
	for _, c := range []class{classOK, classOK, classStatus, classTransport, classWrong, classCutoff, classCutoff} {
		tl.add(c)
	}
	if tl.attempted() != 5 || tl.failed() != 3 {
		t.Errorf("attempted %d failed %d, want 5 and 3", tl.attempted(), tl.failed())
	}
}

func TestWrongAnswersFail(t *testing.T) {
	good := newAPIRequest(1, kindLowerBound, 0)
	other := newAPIRequest(1, kindLowerBound, 1)
	answer := []byte(`{"results":[{"problem":{},"case":1,"bound":0.5}]}`)
	bodies := &apiBodies{first: map[*apiRequest][]byte{}}
	bodies.keep(good, answer)
	recs := []apiRecord{
		{req: good, cls: classOK, sum: hashOf(answer)},
		{req: other, cls: classStatus, reason: "HTTP 503"},
		{req: other, cls: classCutoff},
	}
	var tl tally
	checkAPIRecords(recs, bodies, &tl)
	if tl[classWrong] != 1 || tl[classStatus] != 1 || tl[classCutoff] != 1 || tl.failed() != 2 {
		t.Errorf("tally %v: a wrong bound must count as wrong output", tl)
	}
}

func TestDifferingRepeatIsWrong(t *testing.T) {
	r := newAPIRequest(2, kindLowerBound, 3)
	bodies := &apiBodies{first: map[*apiRequest][]byte{}}
	recs := []apiRecord{{req: r, cls: classOK}, {req: r, cls: classOK}}
	// Answer the request with the oracle's own figures.
	body := []byte(fmt.Sprintf(`{"results":[%s]}`, lowerBoundJSON(r)))
	bodies.keep(r, body)
	recs[0].sum = hashOf(body)
	recs[1].sum = hashOf(append(body, ' '))
	var tl tally
	checkAPIRecords(recs, bodies, &tl)
	if tl[classOK] != 1 || tl[classWrong] != 1 {
		t.Errorf("tally %v: the first answer is right, the differing repeat is wrong", tl)
	}
}

func TestPhaseCountsFailuresAsSlow(t *testing.T) {
	var recs []apiRecord
	for i := 0; i < 2000; i++ {
		due := time.Duration(i) * time.Millisecond
		r := apiRecord{due: due, sent: due, done: due + time.Millisecond, cls: classOK}
		if i%40 == 0 {
			r.cls = classStatus // 2.5% fail: p99 must read +Inf
		}
		recs = append(recs, r)
	}
	st := summarizePhase(1000, 2*time.Second, 2, recs, false)
	if !math.IsInf(st.p99, 1) || st.failed != 50 || st.meets() {
		t.Errorf("p99 %v failed %d meets %v", st.p99, st.failed, st.meets())
	}
	if st.p50 != 1 {
		t.Errorf("p50 %v, want 1 ms", st.p50)
	}
}

func TestScanPlanEnvelope(t *testing.T) {
	body := func(ps ...int) []byte {
		b := []byte(`{"results":[{"summary":{"n1":1},"points":[`)
		for i, p := range ps {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, fmt.Sprintf(`{"p":%d,"case":3,"grid":{"p1":1,"p2":1,"p3":%d}}`, p, p)...)
		}
		return append(b, "]}]}\n"...)
	}
	ps := make([]int, planPoints)
	for i := range ps {
		ps[i] = 100 + i
	}
	picks := [planPicks]int{0, 7, planPoints - 1}
	raw, err := scanPlanEnvelope(body(ps...), 100, picks)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(raw[2]); got != fmt.Sprintf(`{"p":%d,"case":3,"grid":{"p1":1,"p2":1,"p3":%d}}`, 100+planPoints-1, 100+planPoints-1) {
		t.Errorf("last picked point %s", got)
	}
	if got := string(raw[1]); got != `{"p":107,"case":3,"grid":{"p1":1,"p2":1,"p3":107}}` {
		t.Errorf("picked point %s", got)
	}
	ps[10], ps[11] = ps[11], ps[10]
	if _, err := scanPlanEnvelope(body(ps...), 100, picks); err == nil {
		t.Error("points out of P order must be refused")
	}
	if _, err := scanPlanEnvelope(body(ps[:100]...), 100, picks); err == nil {
		t.Error("a short point list must be refused")
	}
}

func TestStampRefusesOtherEnvironments(t *testing.T) {
	a := stamp{Workload: apiMix, Seconds: 30, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2, NProc: 2, Commit: "a", Seed: 1}
	b := a
	b.Commit, b.Seed = "b", 2 // other code and inputs are what a comparison is for
	if d := a.envDiff(b); len(d) != 0 {
		t.Errorf("commit and seed must not block a comparison: %v", d)
	}
	b.GOMAXPROCS = 1
	b.GoVersion = "go1.23.0"
	if d := a.envDiff(b); len(d) != 2 {
		t.Errorf("differences %v, want gomaxprocs and go_version", d)
	}
}

// lowerBoundJSON is a correct /v1/lowerbound result for r.
func lowerBoundJSON(r *apiRequest) string {
	c := core.CaseOf(r.d, r.p)
	blob, _ := json.Marshal(service.LowerBoundResponse{
		Case: int(c), Bound: core.LowerBound(r.d, r.p), Footprint: core.D(r.d, r.p), LeadingTerm: core.LeadingTerm(r.d, r.p),
	})
	return string(blob)
}
