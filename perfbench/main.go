// Command perfbench is the repository's benchmark: one process that
// runs a named workload of training or serving, checks its outputs, and
// prints its metrics. Training runs in-process through the library's
// public packages; serving runs the real warplda-serve binary. See
// LAYERS.md for what each workload and metric is for.
//
// Usage (from the repository root, after building the server):
//
//	perfbench -serve-bin <warplda-serve> -work <dir> \
//	    --workload train-heavy --seed 1 --seconds 20 --trace 0
//
// perfbench/run.sh builds both binaries and runs it. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. With --trace 0 the metrics are the end-to-end ones of
// BENCHMARK.json; with --trace 1 the per-layer ones, from a run that
// records spans around every call into a layer.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"warplda/internal/corpus"
)

// Training set-ups. Targets sit between two iterations' values on
// every seed tried, so time-to-target does not jump an iteration from
// seed to seed; the pinned values are the exact final nll/token at the
// default seed (1) and the held-out seed (7, see LAYERS.md).
var (
	// Zipf s=1.05 over V=50k, ~2M tokens: columns with term frequency
	// above max(K,1024) hold 57% of the tokens, so the staged
	// intra-word path and dense counters do most of the work.
	heavySpec = trainSpec{
		K: 256, Iters: 6, CkEvery: 3, Target: 11.80,
		Corpus: func(seed uint64) (*corpus.Corpus, error) {
			return corpus.GenerateZipf(10000, 50000, 200, 1.05, seed), nil
		},
		Pinned: map[uint64]float64{1: 11.60868843038708, 7: 11.609280212776666},
	}
	// K=8192 over an LDA corpus of ~1M tokens: no column is heavy, so
	// hash counters and sparse alias tables over wide c_w rows do the
	// work — the paper's large-K regime.
	bigkSpec = trainSpec{
		K: 8192, Iters: 6, CkEvery: 3, Target: 17.45,
		Corpus: func(seed uint64) (*corpus.Corpus, error) {
			return corpus.GenerateLDA(corpus.SyntheticConfig{
				D: 5000, V: 10000, K: 100, MeanLen: 200, Alpha: 0.1, Beta: 0.01, Seed: seed,
			})
		},
		Pinned: map[uint64]float64{1: 17.000176565759215, 7: 16.99976272034567},
	}
)

// openRate is the open-loop request rate: about a quarter of what the
// closed phase sustains (~1100 req/s at seed 1 on 2 CPUs). At half,
// open-loop tails and refresh lag spread by more than 25% from run to
// run on a shared 2-CPU host.
const openRate = 250.0

// Every workload runs a training stage and a serving stage so that
// every metric has a value in every result. A train workload gives the
// run's --seconds to training and runs the serving stage at this fixed
// size; serve-refresh trains only the model it serves, during set-up,
// and gives --seconds to the serving stage's open phase and half of it
// to the closed phase.
const (
	probeClosed = 5 * time.Second
	probeOpen   = 8 * time.Second
	probeDeltas = 60
	serveDeltas = 80
)

// workloads maps each workload to its training set-up; nil is the
// serve workload.
var workloads = map[string]*trainSpec{
	"train-heavy":   &heavySpec,
	"train-bigk":    &bigkSpec,
	"serve-refresh": nil,
}

// serveSetups is how many times a serve workload sets up from nothing;
// setup_s and the serve model's training metrics are their medians.
const serveSetups = 5

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(sortedKeys(workloads), ", "))
		seed     = flag.Uint64("seed", 1, "workload seed: corpora, request streams and delta chains derive from it")
		seconds  = flag.Int("seconds", 10, "how long the workload's timed stage runs")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		serveBin = flag.String("serve-bin", "", "warplda-serve binary built from this checkout")
		work     = flag.String("work", "", "scratch directory, emptied first")
		commit   = flag.String("commit", "unknown", "source revision, recorded in the result")
	)
	flag.Parse()
	train, ok := workloads[*name]
	if !ok || *serveBin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	want, err := expectedMetrics(*trace == 1)
	if err != nil {
		fatal(err)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *name, *seed, *trace))
	if err := os.RemoveAll(dir); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	b := &bench{train: train, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		bin: *serveBin, dir: dir, m: metricSet{}}
	if *trace == 1 {
		b.tr = newTracer()
	}
	b.rec.Workload, b.rec.Seed, b.rec.Seconds, b.rec.Trace = *name, *seed, *seconds, *trace
	b.rec.Env = environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: *commit}
	if err := b.run(); err != nil {
		fatal(err)
	}
	if got := sortedKeys(b.m); !slices.Equal(got, want) {
		fatal(fmt.Errorf("internal: metrics %v, BENCHMARK.json lists %v", got, want))
	}
	for _, k := range want {
		v := b.m[k]
		fmt.Printf("metric %-28s %14.6g %-6s %s\n", k, v.Value, v.Unit, v.note)
		b.rec.Samples[k] = v.note
	}
	if b.tr != nil {
		if err := b.tr.writeFile(filepath.Join(dir, "spans.json")); err != nil {
			fatal(err)
		}
	}
	rec, err := json.Marshal(b.rec)
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "record.json"), rec, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("record %s\n", rec)
	if b.checkErr == nil {
		if err := pruneRunDir(dir); err != nil {
			fatal(err)
		}
	}
	res, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{b.checkErr == nil, b.attempted, b.failed, b.m})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(res))
	if b.checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %v\n", b.checkErr)
		os.Exit(1)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// pruneRunDir deletes what a finished run no longer needs (models,
// deltas, checkpoints, server logs), keeping record.json, samples.csv
// and spans.json. A run that fails keeps everything.
func pruneRunDir(dir string) error {
	des, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, de := range des {
		switch de.Name() {
		case "record.json", "samples.csv", "spans.json":
		default:
			if err := os.RemoveAll(filepath.Join(dir, de.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// expectedMetrics reads the metric names of one mode from
// BENCHMARK.json, so a run can never print a set that disagrees with it.
func expectedMetrics(traced bool) ([]string, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	slices.Sort(names)
	return names, nil
}

// metric is one reported value; note (sample count, percentile) goes
// to the printed line and the record, not to the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, note: fmt.Sprintf("n=%d", n)}
}

// setRaw is set for a timing reported at reference speed (hostRef.go),
// noting the raw figure.
func (m metricSet) setRaw(name string, v, raw float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, note: fmt.Sprintf("n=%d raw=%.6g", n, raw)}
}

// setTail reports under name the high percentile of xs over the whole
// phase, noting the percentile and the sample count.
func (m metricSet) setTail(name string, xs []float64, unit string) error {
	t, ok := highPercentile(xs)
	if !ok {
		return fmt.Errorf("%s: %d samples, too few for a high percentile", name, len(xs))
	}
	m[name] = metric{Value: t.Value, Unit: unit, note: fmt.Sprintf("p%.2f, n=%d", t.Percentile, t.N)}
	return nil
}

type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// record is everything a result rests on beyond its metrics.
type record struct {
	Workload    string                 `json:"workload"`
	Seed        uint64                 `json:"seed"`
	Seconds     int                    `json:"seconds"`
	Trace       int                    `json:"trace"`
	Env         environment            `json:"env"`
	ServerFlags []string               `json:"server_flags"`
	Phases      map[string]phaseCounts `json:"phases"`
	TrainPasses int                    `json:"train_passes"`
	Deltas      int                    `json:"deltas_installed"`
	LagsMs      []float64              `json:"refresh_lags_ms"`
	Samples     map[string]string      `json:"samples"`
}

// bench is one run in progress.
type bench struct {
	train   *trainSpec // nil for the serve workload
	seed    uint64
	seconds time.Duration
	bin     string
	dir     string
	tr      *tracer
	m       metricSet
	rec     record

	attempted, failed int
	checkErr          error
}

func (b *bench) check(err error) {
	if err != nil {
		b.checkErr = errors.Join(b.checkErr, err)
	}
}

func (b *bench) traced() bool { return b.tr != nil }

func (b *bench) run() error {
	b.rec.Phases = map[string]phaseCounts{}
	b.rec.Samples = map[string]string{}
	var s *serveSetup
	closed, open, deltas := probeClosed, probeOpen, probeDeltas
	if b.train != nil {
		passes, overhead, err := b.trainStage(*b.train)
		if err != nil {
			return err
		}
		b.report(*b.train, passes)
		if b.traced() {
			b.m.set("trace.overhead_pct", overhead, "%", len(passes))
		}
		runtime.GC() // training's garbage is not the serve stage's to collect
		if s, err = setUpServe(b.bin, filepath.Join(b.dir, "serve"), b.seed, deltas, nil, 0); err != nil {
			return err
		}
	} else {
		closed, open, deltas = b.seconds/2, b.seconds, serveDeltas
		var setups, raw []float64
		var passes []trainPass
		for rep := range serveSetups {
			if s != nil {
				s.srv.stop()
			}
			next, err := setUpServe(b.bin, filepath.Join(b.dir, fmt.Sprintf("serve-%d", rep)), b.seed, deltas, b.tr, int64(rep))
			if err != nil {
				return err
			}
			if s != nil && next.BaseSum != s.BaseSum {
				b.check(fmt.Errorf("set-up %d published a different base snapshot than set-up %d", rep, rep-1))
			}
			s = next
			setups = append(setups, s.Pass.setupAtRef(s.Dur))
			raw = append(raw, s.Dur.Seconds())
			passes = append(passes, s.Pass)
		}
		b.report(serveModel, passes)
		if !b.traced() {
			b.m.setRaw("setup_s", median(setups), median(raw), "s", len(setups))
		}
	}
	if err := s.stageDeltas(deltas); err != nil {
		return err
	}
	return b.serveStage(s, closed, open)
}

// report checks the training passes and sets their metrics.
func (b *bench) report(spec trainSpec, passes []trainPass) {
	b.check(checkPasses(spec, b.seed, passes))
	b.rec.TrainPasses = len(passes)
	for _, p := range passes {
		b.attempted += len(p.Iters)
	}
	trainMetrics(passes, b.m, b.traced())
}

// trainStage runs training passes for the run's --seconds (at least
// two, which must agree bit for bit). A traced run alternates untraced
// and traced passes; the overhead is the difference of their median
// iteration times.
func (b *bench) trainStage(spec trainSpec) (passes []trainPass, overheadPct float64, err error) {
	start := time.Now()
	var plain, traced []float64
	for i := 0; ; i++ {
		var tr *tracer
		if i%2 == 1 {
			tr = b.tr
		}
		p, _, err := runTrainPass(spec, b.seed, b.dir, tr, int64(i))
		if err != nil {
			return nil, 0, err
		}
		passes = append(passes, p)
		if tr == nil {
			plain = append(plain, durs(p.Iters, ms)...)
		} else {
			traced = append(traced, durs(p.Iters, ms)...)
		}
		elapsed := time.Since(start)
		if i >= 1 && elapsed+elapsed/time.Duration(i+1) > b.seconds {
			break
		}
	}
	var setups, raw []float64
	for _, p := range passes {
		setups = append(setups, p.setupAtRef(p.setup()))
		raw = append(raw, p.setup().Seconds())
	}
	if b.traced() {
		overheadPct = 100 * (median(traced) - median(plain)) / median(plain)
	} else {
		b.m.setRaw("setup_s", median(setups), median(raw), "s", len(setups))
	}
	return passes, overheadPct, nil
}

// serveStage checks the probes, runs the load phases and, when traced,
// the in-process replay, then stops the server and reports.
func (b *bench) serveStage(s *serveSetup, closed, open time.Duration) error {
	defer s.srv.stop()
	b.rec.ServerFlags = append([]string{"warplda-serve"}, s.srv.flags...)
	b.check(checkProbes(s))
	r, err := runLoad(s, closed, open, openRate, b.tr)
	if err != nil {
		return err
	}
	var overhead float64
	if b.traced() {
		if overhead, err = replay(s, b.dir, time.Second, b.tr, b.m); err != nil {
			return err
		}
	}
	rss, err := s.srv.peakRSSMB()
	if err != nil {
		return err
	}
	s.srv.stop()

	if err := writeSamples(filepath.Join(b.dir, "samples.csv"), r, s.streams); err != nil {
		return err
	}
	cc, oc := countPhase(r.Closed), countPhase(r.Open)
	b.rec.Phases["closed"], b.rec.Phases["open"] = cc, oc
	b.rec.Deltas = len(r.Installs)
	b.attempted += cc.Attempted + oc.Attempted
	b.failed += cc.Failed + cc.Shed + oc.Failed + oc.Shed

	lags, missing := refreshLags(r)
	b.rec.LagsMs = durs(lags, ms)
	if r.Generation != int64(len(s.Deltas)) {
		b.check(fmt.Errorf("served generation %d after installing %d deltas", r.Generation, len(s.Deltas)))
	}
	if n := r.After.Registry.DeltaRejected; n != 0 {
		b.check(fmt.Errorf("server rejected %d deltas", n))
	}
	if missing > 0 {
		b.check(fmt.Errorf("%d of %d deltas never showed in a response version", missing, len(r.Installs)))
	}

	closedInfer := latencies(r.Closed, s.streams.Infer, isInfer)
	openQuery := latencies(r.Open, s.streams.Mix, isQuery)
	if !b.traced() {
		b.m.set("infer_rps", float64(cc.Succeeded)/r.ClosedDur.Seconds(), "1/s", cc.Succeeded)
		b.m.set("infer_p50_ms", median(closedInfer), "ms", len(closedInfer))
		b.m.set("query_p50_ms", median(openQuery), "ms", len(openQuery))
		b.m.set("refresh_lag_ms", median(durs(lags, ms)), "ms", len(lags))
		b.m.set("server_rss_mb", rss, "MB", 1)
		ok := cc.Succeeded + oc.Succeeded
		b.m.set("ok_frac", float64(ok)/float64(cc.Attempted+oc.Attempted), "fraction", cc.Attempted+oc.Attempted)
		return nil
	}

	// Tails moved by 30-160% from run to run on the shared 2-CPU build
	// host, more than any bound the benchmark may set, so they are
	// reported here, unbounded, rather than as end-to-end metrics.
	if err := errors.Join(b.m.setTail("loadgen.infer_p99_ms", closedInfer, "ms"),
		b.m.setTail("loadgen.query_p99_ms", openQuery, "ms")); err != nil {
		return err
	}
	if b.train == nil {
		b.m.set("trace.overhead_pct", overhead, "%", 2)
	}
	bs, bm := r.Before.Batchers[modelName], r.Mid.Batchers[modelName]
	batches, docs := bm.Batches-bs.Batches, bm.BatchedDocs-bs.BatchedDocs
	b.m.set("infer.batch_docs_mean", float64(docs)/float64(batches), "docs", int(batches))
	handler := float64(r.Mid.LatencyUs.P50)
	b.m.set("serve.handler_p50_us", handler, "us", int(r.Mid.LatencyUs.Count))
	b.m.set("serve.outside_handler_us", 1000*median(closedInfer)-handler, "us", len(closedInfer))
	reg := r.After.Registry
	applied := float64(reg.DeltasApplied)
	b.m.set("registry.fold_ms", reg.FoldMs/applied, "ms", int(reg.DeltasApplied))
	b.m.set("registry.words_rebuilt", float64(reg.WordsRebuilt)/applied, "count", int(reg.DeltasApplied))
	b.m.set("registry.delta_accept_frac", applied/float64(reg.DeltasApplied+reg.DeltaRejected), "fraction",
		int(reg.DeltasApplied+reg.DeltaRejected))
	ba, ga := r.After.Batchers[modelName], r.After.QueryGates[modelName]
	shed := ba.ShedQueueFull + ba.ShedDeadline - bs.ShedQueueFull - bs.ShedDeadline + ga.ShedQueueFull + ga.ShedDeadline
	offered := ba.Submitted - bs.Submitted + ba.ShedQueueFull - bs.ShedQueueFull + ga.Admitted + ga.ShedQueueFull + ga.ShedDeadline
	b.m.set("infer.shed_frac", float64(shed)/math.Max(1, float64(offered)), "fraction", int(offered))
	var late []float64
	for _, smp := range r.Open {
		late = append(late, ms(smp.late()))
	}
	return b.m.setTail("loadgen.late_ms_p99", late, "ms")
}
