package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"warplda"
	"warplda/internal/fsio"
	"warplda/internal/infer"
	"warplda/internal/query"
	"warplda/internal/registry"
)

// dispatch is one coalesced engine call of the replay, returned to
// every request it answered as the batcher's tag.
type dispatch struct {
	Start, End time.Time
	Docs       int
}

// replay re-runs the serve stage's request stream in-process, through
// the layers the server calls and with the server's option values:
// registry.Acquire, then infer.Batcher.Do into Engine.InferBatchSweeps
// for inference; infer.Gate.Enter, then the query iterators, for
// queries; fsio.ReadDelta, then Engine.ApplyDelta, for each delta the
// load phase installed. Spans go around every one of those calls. The
// inference loop runs untraced first and traced second; the relative
// difference of their median latencies is the tracing overhead.
func replay(s *serveSetup, dir string, dur time.Duration, tr *tracer, m metricSet) (overheadPct float64, err error) {
	var model *warplda.Model
	for range 3 {
		tr.timed(0, -1, "fsio.ReadModel", func() { model, err = readModel(s.Base) })
		if err != nil {
			return 0, err
		}
		tr.timed(0, -1, "infer.NewEngine", func() {
			_, err = infer.NewEngine(infer.Params{V: model.V, K: model.Cfg.K, Alpha: model.Cfg.Alpha,
				Beta: model.Cfg.Beta, Cw: model.Cw, Ck: model.Ck}, infer.Options{MHSteps: serveMH, Workers: 2})
		})
		if err != nil {
			return 0, err
		}
	}

	rdir := filepath.Join(dir, "replay-models")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return 0, err
	}
	b, err := os.ReadFile(s.Base)
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(rdir, modelName+".bin"), b, 0o644); err != nil {
		return 0, err
	}
	reg, err := registry.Open(rdir, registry.Options{Infer: warplda.InferOptions{MHSteps: serveMH, Workers: 2}})
	if err != nil {
		return 0, err
	}
	defer reg.Close()
	if _, err := reg.Acquire(modelName); err != nil { // load outside the timed loops
		return 0, err
	}

	var mu sync.Mutex
	var dispatches []dispatch
	batcher := infer.NewBatcher(func(docs [][]int32, sweeps []int) ([][]float64, any, error) {
		d := dispatch{Start: time.Now(), Docs: len(docs)}
		snap, err := reg.Acquire(modelName)
		if err != nil {
			return nil, nil, err
		}
		thetas, err := snap.Engine.InferBatchSweeps(docs, sweeps, serveSeed)
		d.End = time.Now()
		mu.Lock()
		dispatches = append(dispatches, d)
		mu.Unlock()
		return thetas, d, err
	}, infer.BatcherOptions{MaxBatch: serveBatchMax, Linger: serveLinger, QueueDepth: serveQueueDepth})
	defer batcher.Close()

	inferOnce := func(t *tracer, i int) outcome {
		req := s.streams.Infer[i%len(s.streams.Infer)]
		trace := int64(i)
		root := t.id()
		start := time.Now()
		var err error
		t.timed(root, trace, "registry.Acquire", func() { _, err = reg.Acquire(modelName) })
		if err != nil {
			return outcome{}
		}
		doID := t.id()
		doStart := time.Now()
		_, tag, err := batcher.Do(req.Doc, serveSweeps, time.Time{})
		doEnd := time.Now()
		if err != nil {
			return outcome{}
		}
		d := tag.(dispatch)
		t.record(t.id(), doID, trace, "infer.Engine.InferBatchSweeps", d.Start, d.End)
		t.record(doID, root, trace, "infer.Batcher.Do", doStart, doEnd)
		t.record(root, 0, trace, "replay.infer", start, doEnd)
		return outcome{Status: 200}
	}
	untraced := closedLoop(wallClock{}, time.Now().Add(dur), 2, func(i int) outcome { return inferOnce(nil, i) })
	mu.Lock()
	dispatches = nil
	mu.Unlock()
	traced := closedLoop(wallClock{}, time.Now().Add(dur), 2, func(i int) outcome { return inferOnce(tr, i) })
	for _, ss := range [][]sample{untraced, traced} {
		if c := countPhase(ss); c.Succeeded != c.Attempted {
			return 0, fmt.Errorf("replay inference: %d of %d requests failed", c.Attempted-c.Succeeded, c.Attempted)
		}
	}
	u := median(durs(sampleLatencies(untraced), us))
	overheadPct = 100 * (median(durs(sampleLatencies(traced), us)) - u) / u

	mu.Lock()
	var busy time.Duration
	var docs int
	for _, d := range dispatches {
		busy += d.End.Sub(d.Start)
		docs += d.Docs
	}
	mu.Unlock()
	m.set("infer.engine_us_per_doc", us(busy)/float64(docs), "us", docs)

	if err := replayQueries(s, reg, dur, tr); err != nil {
		return 0, err
	}
	if err := replayDeltas(s, reg, tr); err != nil {
		return 0, err
	}

	spans := tr.snapshot()
	all := byName(spans, nil)
	self := byName(spans, selfTimes(spans))
	setMedian := func(metric, span, unit string, conv func(time.Duration) float64, src map[string][]time.Duration) {
		m.set(metric, median(durs(src[span], conv)), unit, len(src[span]))
	}
	setMedian("fsio.read_model_ms", "fsio.ReadModel", "ms", ms, all)
	setMedian("infer.new_engine_ms", "infer.NewEngine", "ms", ms, all)
	setMedian("registry.acquire_us", "registry.Acquire", "us", us, all)
	setMedian("infer.batch_wait_us", "infer.Batcher.Do", "us", us, self)
	setMedian("infer.gate_wait_us", "infer.Gate.Enter", "us", us, all)
	setMedian("query.topwords_us", "query.TopWords", "us", us, all)
	setMedian("query.similar_us", "query.Similar", "us", us, all)
	setMedian("query.vocab_us", "query.VocabSlice", "us", us, all)
	setMedian("fsio.read_delta_ms", "fsio.ReadDelta", "ms", ms, all)
	setMedian("infer.apply_delta_ms", "infer.Engine.ApplyDelta", "ms", ms, all)
	return overheadPct, nil
}

func readModel(path string) (*warplda.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return warplda.ReadModel(f)
}

func sampleLatencies(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.latency()
	}
	return out
}

// replayQueries runs the query requests of the open-loop mix from two
// goroutines through the server's query gate and the query layer, each
// page collected as the server would stream it.
func replayQueries(s *serveSetup, reg *registry.Registry, dur time.Duration, tr *tracer) error {
	var queries []request
	for _, r := range s.streams.Mix {
		if r.Kind != "infer" {
			queries = append(queries, r)
		}
	}
	gate := infer.NewGate(serveQueueDepth)
	samples := closedLoop(wallClock{}, time.Now().Add(dur), 2, func(i int) outcome {
		req := queries[i%len(queries)]
		trace := int64(1<<32 + i)
		root := tr.id()
		start := time.Now()
		var release func()
		var err error
		tr.timed(root, trace, "infer.Gate.Enter", func() { release, err = gate.Enter(time.Time{}) })
		if err != nil {
			return outcome{}
		}
		defer release()
		snap, err := reg.Acquire(modelName)
		if err != nil {
			return outcome{}
		}
		qm := query.Model{Engine: snap.Engine, Vocab: snap.Model.Vocab}
		depth := req.Limit + 1
		switch req.Kind {
		case "topwords":
			tr.timed(root, trace, "query.TopWords", func() {
				var it *query.Iter[query.WordRow]
				if it, err = query.TopWords(qm, req.Topic, depth); err == nil {
					_, err = query.Collect(query.Limit(it, req.Limit))
				}
			})
		case "similar":
			tr.timed(root, trace, "query.Similar", func() {
				var it *query.Iter[query.SimRow]
				if it, err = query.Similar(qm, req.Doc, req.Cands, serveSweeps, serveSeed, depth); err == nil {
					_, err = query.Collect(query.Limit(it, req.Limit))
				}
			})
		case "vocab":
			tr.timed(root, trace, "query.VocabSlice", func() {
				_, err = query.Collect(query.Limit(query.VocabSlice(qm, req.Prefix), req.Limit))
			})
		}
		tr.record(root, 0, trace, "replay.query", start, time.Now())
		if err != nil {
			return outcome{}
		}
		return outcome{Status: 200}
	})
	if c := countPhase(samples); c.Succeeded != c.Attempted {
		return fmt.Errorf("replay queries: %d of %d failed", c.Attempted-c.Succeeded, c.Attempted)
	}
	return nil
}

// replayDeltas decodes every delta the load phase installed and folds
// it into an engine, in chain order, starting from the base snapshot.
func replayDeltas(s *serveSetup, reg *registry.Registry, tr *tracer) error {
	snap, err := reg.Acquire(modelName)
	if err != nil {
		return err
	}
	eng := snap.Engine
	for g, staged := range s.Deltas {
		path := filepath.Join(s.Models, filepath.Base(staged))
		trace := int64(2<<32 + g)
		root := tr.id()
		start := time.Now()
		var d *fsio.ModelDelta
		tr.timed(root, trace, "fsio.ReadDelta", func() {
			var f *os.File
			if f, err = os.Open(path); err != nil {
				return
			}
			defer f.Close()
			d, err = fsio.ReadDelta(f)
		})
		if err != nil {
			return fmt.Errorf("replay delta %d: %w", g+1, err)
		}
		tr.timed(root, trace, "infer.Engine.ApplyDelta", func() { eng, _, err = eng.ApplyDelta(d) })
		if err != nil {
			return fmt.Errorf("replay delta %d: %w", g+1, err)
		}
		tr.record(root, 0, trace, "replay.delta", start, time.Now())
	}
	return nil
}
