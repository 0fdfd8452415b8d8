package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Spans of one operation share Op; Parent
// is 0 for the operation's root.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, when the run
// ends, so the file system stays out of the timed path. It is safe for
// concurrent use: compute closures record from pool workers.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	ids   int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open reserves a span id so children can name their parent before it ends.
func (r *recorder) open() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ids++
	return r.ids
}

// record stores a finished span under a reserved id.
func (r *recorder) record(id, parent, op int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Op: op, Name: name, Start: start.Sub(r.epoch), End: end.Sub(r.epoch)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn as a span and returns its duration.
func (r *recorder) timed(parent, op int64, name string, fn func()) time.Duration {
	id := r.open()
	start := time.Now()
	fn()
	end := time.Now()
	r.record(id, parent, op, name, start, end)
	return end.Sub(start)
}

// writeFile writes every span as one JSON document.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	blob, err := json.Marshal(r.spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, blob, 0o644)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap one another (a sweep's points run
// on several workers at once); covered time is counted once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered
}

// selfByName sums the self time of every span, grouped by span name.
func selfByName(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += selfTime(s, children[s.ID])
	}
	return out
}
