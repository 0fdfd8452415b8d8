package main

import (
	"testing"
	"time"
)

func sp(id, parent int64, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	root := sp(1, 0, "sweep", 0, 100)
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(2, 1, "c", 10, 20), sp(3, 1, "c", 30, 50)}, 70},
		{"overlapping workers count once", []span{sp(2, 1, "c", 10, 40), sp(3, 1, "c", 20, 60)}, 50},
		{"nested inside another child", []span{sp(2, 1, "c", 10, 60), sp(3, 1, "c", 20, 30)}, 50},
		{"clipped to the parent", []span{sp(2, 1, "c", -10, 10), sp(3, 1, "c", 90, 130)}, 80},
		{"outside the parent", []span{sp(2, 1, "c", 100, 120)}, 100},
		{"fully covered", []span{sp(2, 1, "c", 0, 100)}, 0},
	} {
		if got := selfTime(root, c.children); got != c.want {
			t.Errorf("%s: self %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfByName(t *testing.T) {
	spans := []span{
		sp(1, 0, "handler", 0, 100),
		sp(2, 1, "sweep", 10, 70),
		sp(3, 2, "compute", 10, 40),
		sp(4, 2, "compute", 30, 50),
		sp(5, 1, "encode", 70, 90),
		sp(6, 0, "handler", 200, 210),
	}
	got := selfByName(spans)
	want := map[string]time.Duration{"handler": 20 + 10, "sweep": 20, "compute": 30 + 20, "encode": 20}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: self %v, want %v", name, got[name], w)
		}
	}
}

func TestRecorderTimed(t *testing.T) {
	r := newRecorder()
	parent := r.open()
	start := time.Now()
	r.timed(parent, 9, "child", func() { time.Sleep(time.Millisecond) })
	r.record(parent, 0, 9, "parent", start, time.Now())
	self := selfByName(r.spans)
	if self["child"] < time.Millisecond {
		t.Errorf("child self %v, want ≥ 1ms", self["child"])
	}
	if self["parent"] < 0 || self["parent"] >= self["child"]+time.Millisecond {
		t.Errorf("parent self %v should exclude its child (%v)", self["parent"], self["child"])
	}
}
