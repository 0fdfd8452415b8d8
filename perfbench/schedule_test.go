package main

import (
	"reflect"
	"testing"
	"time"
)

func TestPoissonArrivalsSeeded(t *testing.T) {
	a := poissonArrivals(newRNG(7, streamAPISchedule), 2000, 2*time.Second)
	b := poissonArrivals(newRNG(7, streamAPISchedule), 2000, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different arrivals")
	}
	c := poissonArrivals(newRNG(8, streamAPISchedule), 2000, 2*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same arrivals")
	}
	// 4000 expected; a Poisson count is within ±5σ (≈ ±316) of it.
	if n := len(a); n < 3684 || n > 4316 {
		t.Errorf("%d arrivals at 2000/s over 2s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("arrival %d at %v is out of order or past the span", i, a[i])
		}
	}
}

func TestAPIPhaseIndependentOfOrder(t *testing.T) {
	g1 := &apiMixGen{seed: 3, reqs: map[[2]int]*apiRequest{}}
	g2 := &apiMixGen{seed: 3, reqs: map[[2]int]*apiRequest{}}
	g2.phase(phaseWarm, 1000, time.Second) // draws other keys first
	want := g1.phase(phaseRung+4, 3000, time.Second)
	got := g2.phase(phaseRung+4, 3000, time.Second)
	if len(got) != len(want) {
		t.Fatalf("%d calls, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].at != want[i].at || string(got[i].req.body) != string(want[i].req.body) {
			t.Fatalf("call %d differs: %v %s vs %v %s", i, got[i].at, got[i].req.body, want[i].at, want[i].req.body)
		}
	}
}

func TestAPIKeysAreSkewed(t *testing.T) {
	g := &apiMixGen{seed: 5, reqs: map[[2]int]*apiRequest{}}
	calls := g.phase(phaseRef, 5000, 2*time.Second)
	distinct := map[*apiRequest]bool{}
	for _, c := range calls {
		distinct[c.req] = true
	}
	// Repeats are common (the memo gets hits) but far from universal.
	if ratio := float64(len(distinct)) / float64(len(calls)); ratio < 0.05 || ratio > 0.8 {
		t.Errorf("%d distinct requests in %d calls", len(distinct), len(calls))
	}
}

func TestPlanInputsSeededAndCold(t *testing.T) {
	a, err := planInputs(11, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := planInputs(11, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different plan inputs")
	}
	mems := map[float64]bool{}
	for _, in := range a {
		if mems[in.mem] {
			t.Fatalf("memory budget %g repeats: a later request would hit the memo", in.mem)
		}
		mems[in.mem] = true
	}
	if _, err := planInputs(11, planMemSpan+1); err == nil {
		t.Error("more requests than distinct budgets must be refused")
	}
}

// A run can draw one request per memory budget, far more than any
// realistic speedup of the plan path would send in a run.
func TestPlanBudgetsNeverRepeat(t *testing.T) {
	seen := make([]bool, planMemSpan)
	for i := 0; i < planMemSpan; i++ {
		k := int(planInputAt(3, i).mem) - planMemBase
		if k < 0 || k >= planMemSpan || seen[k] {
			t.Fatalf("request %d has budget index %d, out of range or repeated", i, k)
		}
		seen[k] = true
	}
	if planInputAt(3, 0).mem == planInputAt(4, 0).mem && planInputAt(3, 1).mem == planInputAt(4, 1).mem {
		t.Error("two seeds drew the same budgets")
	}
}

func TestSimWorldsSeeded(t *testing.T) {
	a, b := simWorlds(4), simWorlds(4)
	if len(a) != len(b) {
		t.Fatal("world lists differ in length")
	}
	for i := range a {
		if a[i].d != b[i].d || a[i].p != b[i].p || a[i].a.MaxAbsDiff(b[i].a) != 0 {
			t.Fatalf("world %d differs between two draws of one seed", i)
		}
		if a[i].class == "small" && (a[i].p > 64 || a[i].d.N1 > 128 || a[i].d.N2 > 128 || a[i].d.N3 > 128) {
			t.Errorf("small world %v on P=%d is out of range", a[i].d, a[i].p)
		}
	}
}

// climbPath runs a climb against a system that passes every rung below
// capacity (a ladder index) and returns the rungs tried.
func climbPath(capacity int) (tried []int) {
	c := newClimb()
	for c.rung() >= 0 {
		tried = append(tried, c.rung())
		c.record(c.rung() < capacity)
	}
	return tried
}

func TestClimb(t *testing.T) {
	s := apiLadderStart
	for _, c := range []struct {
		name     string
		capacity int
		want     []int
	}{
		{"fails two above a pass, skipped rung passes", s + 4, []int{s, s + 2, s + 4, s + 3}},
		{"fails two above a pass, skipped rung fails", s + 3, []int{s, s + 2, s + 4, s + 3}},
		{"start fails", s - 2, []int{s, s - 1, s - 2, s - 3}},
		{"nothing passes", 0, []int{s, s - 1, s - 2, s - 3, s - 4, s - 5, s - 6, s - 7, s - 8, s - 9, s - 10, s - 11, s - 12, s - 13}},
	} {
		got := climbPath(c.capacity)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: tried %v, want %v", c.name, got, c.want)
		}
	}
	// Everything passes: the climb ends on the top rung.
	got := climbPath(len(apiLadder))
	if got[len(got)-1] != len(apiLadder)-1 {
		t.Errorf("unbounded capacity: climb ended at %d, want the top rung", got[len(got)-1])
	}
}
