package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/algs"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/matrix"
)

func cubeWorld(class string, n, p int, seed uint64) world {
	a, b := matrix.Random(n, n, seed), matrix.Random(n, n, seed+1)
	return world{class: class, d: core.Square(n), p: p, a: a, b: b, ref: matrix.Mul(a, b)}
}

// timeCubes times four small cube worlds, one per class and an extra
// small one, after spoiling the reference product of the worlds listed.
func timeCubes(t *testing.T, wrong ...int) (*report, error) {
	t.Helper()
	worlds := []world{
		cubeWorld("small", 16, 8, 1),
		cubeWorld("small", 12, 4, 3),
		cubeWorld("large", 16, 8, 5),
		cubeWorld("torus", 16, 8, 7),
	}
	for _, i := range wrong {
		worlds[i].ref = matrix.Random(worlds[i].d.N1, worlds[i].d.N3, 99)
	}
	entry, err := algs.Lookup("Alg1")
	if err != nil {
		t.Fatal(err)
	}
	run := func(i int) (*algs.Result, error) {
		return entry.Run(worlds[i].a, worlds[i].b, worlds[i].p, algs.Opts{Config: machine.BandwidthOnly()})
	}
	return timeWorlds(worlds, run, 1, 50*time.Millisecond, 0.01)
}

func TestSmallWorldThatAlwaysFails(t *testing.T) {
	rep, err := timeCubes(t, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.tally[classWrong] == 0 || rep.tally[classOK] == 0 {
		t.Fatalf("outcomes %v: want both wrong outputs and passes", rep.tally)
	}
	res, err := resultOf(rep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != rep.tally[classWrong] {
		t.Errorf("result %+v: want incorrect with %d failed", res, rep.tally[classWrong])
	}
	for _, name := range []string{"p50_ms", "tail_ms", "throughput_per_s", "ok_ratio", "setup_s"} {
		m, ok := res.Metrics[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v, %v: want a finite value from the worlds that passed", name, m.Value, ok)
		}
	}
}

func TestEveryWorldFails(t *testing.T) {
	rep, runErr := timeCubes(t, 0, 1, 2, 3)
	if runErr == nil {
		t.Fatal("no world passed, yet the run reported no error")
	}
	res, err := resultOf(rep, runErr)
	if err != nil {
		t.Fatalf("wrong outputs must still give a result: %v", err)
	}
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Errorf("result %+v: want incorrect, every attempt failed", res)
	}
}

func TestResultOf(t *testing.T) {
	rep := newReport()
	rep.tally.add(classOK)
	rep.set("p50_ms", "ms", math.Inf(1))
	if _, err := resultOf(rep, nil); err == nil {
		t.Error("a correct run with a non-finite metric must give no result")
	}
	rep.tally.add(classWrong)
	res, err := resultOf(rep, nil)
	if err != nil || res.Correct {
		t.Fatalf("incorrect run: %+v, %v", res, err)
	}
	if _, ok := res.Metrics["p50_ms"]; ok {
		t.Error("a non-finite metric must be left out of the result")
	}
	errNoResult := errors.New("parmmd did not become healthy")
	if _, err := resultOf(nil, errNoResult); err != errNoResult {
		t.Errorf("a run error without wrong outputs gave %v, want it passed on", err)
	}
}
