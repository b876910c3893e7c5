package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"warplda/internal/core"
	"warplda/internal/corpus"
	"warplda/internal/eval"
	"warplda/internal/sampler"
	"warplda/internal/train"
)

// trainSpec is one training set-up: a corpus generator, the sampler
// configuration, and the pass the benchmark times.
type trainSpec struct {
	K       int
	Iters   int // iterations per pass
	CkEvery int // checkpoint interval in iterations
	// Target is the negative log-likelihood per token at which the
	// time-to-target clock stops.
	Target float64
	Corpus func(seed uint64) (*corpus.Corpus, error)
	// Pinned holds the exact final negative log-likelihood per token
	// of a pass, by seed.
	Pinned map[uint64]float64
}

func (s trainSpec) config(seed uint64) sampler.Config {
	cfg := sampler.PaperDefaults(s.K)
	cfg.M = 2
	cfg.Threads = 2
	cfg.Seed = seed
	return cfg
}

// trainPass is what one pass measured: set-up from nothing to a ready
// sampler, then Iters iterations, each evaluated, with checkpoints.
type trainPass struct {
	Tokens  int
	Gen     time.Duration
	New     time.Duration
	Iters   []time.Duration
	Evals   []time.Duration
	Cks     []time.Duration
	CkBytes []int64
	// TargetIter is the first iteration whose evaluated nll/token
	// reached the target, 0 when none did; CksToTarget is the number
	// of checkpoints written up to and including it.
	TargetIter, CksToTarget int
	NLL                     float64 // final negative log-likelihood per token
	LiveHeap                uint64  // bytes live once the sampler is built
	Mallocs                 uint64  // over the Iterate calls
	Alloc                   uint64  // bytes, over the Iterate calls
	// GCPause is over the whole iteration loop, not the Iterate calls
	// alone: hostRef collects before each Iterate, so inside them it is
	// 0 unless one iteration fills the heap's growth allowance.
	GCPause time.Duration
	// Reference loop times (hostRef): SetupRef just before set-up,
	// Refs[i] just before Iterate i, CkRefs the Refs entry of each
	// checkpoint's iteration. RefTotal is the time spent in hostRef,
	// which a caller timing the whole pass leaves out.
	SetupRef time.Duration
	Refs     []time.Duration
	CkRefs   []time.Duration
	RefTotal time.Duration
}

func (p trainPass) setup() time.Duration { return p.Gen + p.New }

// setupAtRef prices d, a set-up time of this pass, at reference speed
// (hostRef.go), in seconds. One loop time alone spread set-up times
// more than it steadied them, so d is priced at the median of the
// pass's loop times, all taken within a few seconds of the set-up.
func (p trainPass) setupAtRef(d time.Duration) float64 {
	refs := append(durs(p.Refs, ms), ms(p.SetupRef))
	return atRef(d, time.Duration(median(refs)*float64(time.Millisecond))) / 1000
}

// trained is a pass's end state, kept when later stages continue from
// it.
type trained struct {
	c   *corpus.Corpus
	w   *core.Warp
	cfg sampler.Config
}

// runTrainPass generates the corpus, builds the sampler and trains it,
// timing each public call. Checkpoints go to dir.
func runTrainPass(spec trainSpec, seed uint64, dir string, tr *tracer, traceID int64) (trainPass, trained, error) {
	var p trainPass
	// Set-up does not pay for collecting the previous pass.
	p.SetupRef, p.RefTotal = hostRef()
	root := tr.id()
	passStart := time.Now()
	defer func() { tr.record(root, 0, traceID, "train.pass", passStart, time.Now()) }()

	var c *corpus.Corpus
	var err error
	p.Gen = tr.timed(root, traceID, "corpus.generate", func() { c, err = spec.Corpus(seed) })
	if err != nil {
		return p, trained{}, fmt.Errorf("generating corpus: %w", err)
	}
	cfg := spec.config(seed)
	var w *core.Warp
	p.New = tr.timed(root, traceID, "core.New", func() { w, err = core.New(c, cfg) })
	if err != nil {
		return p, trained{}, fmt.Errorf("building sampler: %w", err)
	}
	p.Tokens = c.NumTokens()
	fp := train.CorpusFingerprint(c)

	// Live heap once set-up is done: corpus and sampler. Measured here
	// because after training starts the same figure moved between two
	// values (88 and 111 MB on train-heavy) from pass to pass; the
	// second collection empties the sync.Pool victim caches the first
	// leaves.
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	p.LiveHeap = ms1.HeapAlloc
	pause0 := ms1.PauseTotalNs
	var buf bytes.Buffer
	for it := 1; it <= spec.Iters; it++ {
		ref, spent := hostRef()
		p.Refs = append(p.Refs, ref)
		p.RefTotal += spent
		runtime.ReadMemStats(&ms0)
		p.Iters = append(p.Iters, tr.timed(root, traceID, "core.Iterate", w.Iterate))
		runtime.ReadMemStats(&ms1)
		p.Mallocs += ms1.Mallocs - ms0.Mallocs
		p.Alloc += ms1.TotalAlloc - ms0.TotalAlloc

		var ll float64
		p.Evals = append(p.Evals, tr.timed(root, traceID, "eval.LogJoint", func() {
			ll = eval.LogJoint(c, w.Assignments(), cfg.K, cfg.Alpha, cfg.Beta)
		}))
		p.NLL = -ll / float64(p.Tokens)
		if math.IsNaN(p.NLL) || math.IsInf(p.NLL, 0) {
			return p, trained{}, fmt.Errorf("iteration %d: log-likelihood %v", it, ll)
		}

		if it%spec.CkEvery == 0 || it == spec.Iters {
			var n int64
			p.Cks = append(p.Cks, tr.timed(root, traceID, "train.Checkpoint", func() {
				buf.Reset()
				if err = w.StateTo(&buf); err != nil {
					return
				}
				ck := &train.Checkpoint{Sampler: w.Name(), Cfg: cfg, Iter: it, Fingerprint: fp, State: buf.Bytes()}
				n, err = ck.WriteFile(filepath.Join(dir, train.DefaultFileName))
			}))
			if err != nil {
				return p, trained{}, fmt.Errorf("checkpoint at iteration %d: %w", it, err)
			}
			p.CkBytes = append(p.CkBytes, n)
			p.CkRefs = append(p.CkRefs, ref)
		}
		if p.TargetIter == 0 && p.NLL <= spec.Target {
			p.TargetIter, p.CksToTarget = it, len(p.Cks)
		}
	}
	runtime.ReadMemStats(&ms1)
	p.GCPause = time.Duration(ms1.PauseTotalNs - pause0)
	return p, trained{c: c, w: w, cfg: cfg}, nil
}

// checkPasses verifies that every pass of a run ended on the same bits,
// and on the pinned value when the seed has one.
func checkPasses(spec trainSpec, seed uint64, passes []trainPass) error {
	for i, p := range passes {
		if p.NLL != passes[0].NLL {
			return fmt.Errorf("pass %d ended at nll/token %v, pass 0 at %v: same seed, different bits", i, p.NLL, passes[0].NLL)
		}
		if p.TargetIter == 0 {
			return fmt.Errorf("pass %d never reached the target nll/token %v (final %v)", i, spec.Target, p.NLL)
		}
		if p.TargetIter != passes[0].TargetIter {
			return fmt.Errorf("pass %d reached the target at iteration %d, pass 0 at %d", i, p.TargetIter, passes[0].TargetIter)
		}
	}
	if want, ok := spec.Pinned[seed]; ok && passes[0].NLL != want {
		return fmt.Errorf("final nll/token %v, pinned %v for seed %d", passes[0].NLL, want, seed)
	}
	return nil
}

// trainMetrics reduces a run's passes to the training metrics.
func trainMetrics(passes []trainPass, m metricSet, traced bool) {
	var iters, evals, cks []float64
	var iterCal, evalCal, ckCal []float64 // at reference speed (hostRef)
	var ckMB []float64
	var heap []float64
	var mallocs, alloc, gc, nIters float64
	tokens := float64(passes[0].Tokens)
	for _, p := range passes {
		iters = append(iters, durs(p.Iters, ms)...)
		evals = append(evals, durs(p.Evals, ms)...)
		cks = append(cks, durs(p.Cks, ms)...)
		for i, ref := range p.Refs {
			iterCal = append(iterCal, atRef(p.Iters[i], ref))
			evalCal = append(evalCal, atRef(p.Evals[i], ref))
		}
		for i, ref := range p.CkRefs {
			ckCal = append(ckCal, atRef(p.Cks[i], ref))
		}
		for _, b := range p.CkBytes {
			ckMB = append(ckMB, float64(b)/(1<<20))
		}
		heap = append(heap, float64(p.LiveHeap)/(1<<20))
		mallocs += float64(p.Mallocs)
		alloc += float64(p.Alloc)
		gc += ms(p.GCPause)
		nIters += float64(len(p.Iters))
	}
	iterP50 := median(iters)
	if !traced {
		// Timings at reference speed (hostRef.go); the raw figure goes
		// to the printed line.
		iterCalP50 := median(iterCal)
		m.setRaw("train_tokens_per_s", tokens/(iterCalP50/1000), tokens/(iterP50/1000), "1/s", len(iters))
		// The wall time to the target is its iterations, evaluations
		// and checkpoints; the target iteration is the same in every
		// pass (checkPasses), so each part is priced at the run's
		// median for it rather than timed once per pass.
		p := passes[0]
		ttt := func(iter, eval, ck []float64) float64 {
			return (float64(p.TargetIter)*(median(iter)+median(eval)) + float64(p.CksToTarget)*median(ck)) / 1000
		}
		m.setRaw("time_to_target_s", ttt(iterCal, evalCal, ckCal), ttt(iters, evals, cks), "s", len(iters))
		m.set("nll_per_token", passes[0].NLL, "nats", len(passes))
		m.set("train_heap_live_mb", median(heap), "MB", len(heap))
		return
	}
	var gens, news []float64
	for _, p := range passes {
		gens = append(gens, ms(p.Gen))
		news = append(news, ms(p.New))
	}
	m.set("corpus.generate_ms", median(gens), "ms", len(gens))
	m.set("core.new_ms", median(news), "ms", len(news))
	m.set("core.iterate_ms_p50", iterP50, "ms", len(iters))
	m.set("core.ns_per_token", iterP50*1e6/tokens, "ns", len(iters))
	m.set("core.allocs_per_iter", mallocs/nIters, "count", int(nIters))
	m.set("core.alloc_mb_per_iter", alloc/nIters/(1<<20), "MB", int(nIters))
	m.set("runtime.gc_pause_ms", gc/nIters, "ms", int(nIters))
	m.set("eval.loglik_ms", median(evals), "ms", len(evals))
	m.set("train.checkpoint_ms", median(cks), "ms", len(cks))
	m.set("train.checkpoint_mb", median(ckMB), "MB", len(ckMB))
}
