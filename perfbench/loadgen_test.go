package main

import (
	"testing"
	"time"
)

// virtualClock advances only when a request does work or a worker
// sleeps, so schedules are exact.
type virtualClock struct{ now time.Time }

func (c *virtualClock) Now() time.Time { return c.now }
func (c *virtualClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	clk := &virtualClock{now: time.Unix(0, 0)}
	start := clk.now
	// One connection, a slot every 10ms. Request 0 stalls for 45ms;
	// every other request takes 1ms.
	samples := openLoop(clk, start, start.Add(100*time.Millisecond), 100, 1, func(i int) outcome {
		d := time.Millisecond
		if i == 0 {
			d = 45 * time.Millisecond
		}
		clk.now = clk.now.Add(d)
		return outcome{Status: 200}
	})
	if len(samples) != 10 {
		t.Fatalf("%d samples, want one per 10ms slot of 100ms", len(samples))
	}
	// Request 1 was due at 10ms, went out at 45ms and finished at 46ms:
	// it waited 35ms for the stall and the latency shows all of it.
	for i, want := range []struct{ late, lat time.Duration }{
		{0, 45 * time.Millisecond},
		{35 * time.Millisecond, 36 * time.Millisecond},
		{26 * time.Millisecond, 27 * time.Millisecond},
		{17 * time.Millisecond, 18 * time.Millisecond},
		{8 * time.Millisecond, 9 * time.Millisecond},
		{0, time.Millisecond}, // back on schedule
	} {
		s := samples[i]
		if s.Due != start.Add(time.Duration(i)*10*time.Millisecond) {
			t.Errorf("request %d due at %v", i, s.Due.Sub(start))
		}
		if s.late() != want.late || s.latency() != want.lat {
			t.Errorf("request %d: late %v latency %v, want %v and %v", i, s.late(), s.latency(), want.late, want.lat)
		}
	}
}

func TestClosedLoopSendsOnCompletion(t *testing.T) {
	clk := &virtualClock{now: time.Unix(0, 0)}
	samples := closedLoop(clk, clk.now.Add(10*time.Millisecond), 1, func(int) outcome {
		clk.now = clk.now.Add(2 * time.Millisecond)
		return outcome{Status: 503}
	})
	if len(samples) != 5 {
		t.Fatalf("%d samples, want 5 back-to-back 2ms requests", len(samples))
	}
	for i, s := range samples {
		if s.late() != 0 || s.latency() != 2*time.Millisecond || !s.shed() {
			t.Errorf("request %d: %+v", i, s)
		}
	}
	if c := countPhase(samples); c.Attempted != 5 || c.Shed != 5 || c.Succeeded != 0 {
		t.Errorf("counts %+v", c)
	}
}

func TestRefreshLagIsFirstResponseCarryingTheFold(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := serveRun{
		BaseVersion: 1,
		Installs:    []time.Time{at(10), at(50)},
		Open: []sample{
			{Index: 0, Done: at(12), outcome: outcome{Status: 200, Version: 1}}, // before the fold
			{Index: 1, Done: at(15), outcome: outcome{Status: 503}},             // shed: no version
			{Index: 2, Done: at(18), outcome: outcome{Status: 200, Version: 2}}, // first with gen 1
			{Index: 3, Done: at(60), outcome: outcome{Status: 200, Version: 2}}, // still gen 1
		},
	}
	lags, missing := refreshLags(r)
	if len(lags) != 1 || lags[0] != 8*time.Millisecond || missing != 1 {
		t.Errorf("lags %v missing %d, want [8ms] and 1", lags, missing)
	}
}
