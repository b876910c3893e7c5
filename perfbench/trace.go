package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request or one
// training pass share a Trace id; Parent is the id of the span that
// caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs call the same code at the cost of a
// nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id allocates a span id before the span's children run, so they can
// name it as their parent. A nil tracer returns 0.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a pre-allocated id.
func (t *tracer) record(id, parent, trace int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f as a leaf span and returns its duration, traced or not.
func (t *tracer) timed(parent, trace int64, name string, f func()) time.Duration {
	id := t.id()
	start := time.Now()
	f()
	end := time.Now()
	t.record(id, parent, trace, name, start, end)
	return end.Sub(start)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// writeFile writes every span as one JSON document; called once, when
// the run ends.
func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time, by span id: its duration
// minus the part of its interval that its children cover. Overlapping
// children count once, and a child reaching outside its parent counts
// only inside it.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - time.Duration(covered(s.Start, s.End, children[s.ID]))
	}
	return self
}

// covered returns the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	var total, end int64 = 0, lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// byName groups span durations (or self times, when self is non-nil)
// by span name.
func byName(spans []span, self map[int64]time.Duration) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range spans {
		d := s.dur()
		if self != nil {
			d = self[s.ID]
		}
		out[s.Name] = append(out[s.Name], d)
	}
	return out
}
