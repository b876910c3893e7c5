package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 50): 40, not 30+25.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 25, End: 50},
		// A child reaching past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild is its parent's business, not the root's.
		{ID: 5, Parent: 2, Name: "d", Start: 12, End: 20},
		// Another trace's span with the same interval changes nothing.
		{ID: 6, Trace: 9, Name: "other", Start: 0, End: 100},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 50, 2: 22, 3: 25, 4: 30, 5: 8, 6: 100} {
		if self[id] != want {
			t.Errorf("span %d: self %v, want %v", id, self[id], want)
		}
	}
	if got := byName(spans, self)["a"]; len(got) != 1 || got[0] != 22 {
		t.Errorf("byName self of a: %v", got)
	}
}

func TestTracerRecordsParentsAndNilTracerIsSilent(t *testing.T) {
	tr := newTracer()
	root := tr.id()
	start := time.Now()
	tr.timed(root, 7, "child", func() {})
	tr.record(root, 0, 7, "root", start, time.Now())
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Parent != root || spans[1].ID != root || spans[0].Trace != 7 {
		t.Fatalf("spans %+v", spans)
	}
	var off *tracer
	if off.id() != 0 || off.timed(0, 0, "x", func() {}) < 0 || off.snapshot() != nil {
		t.Error("nil tracer recorded something")
	}
}
