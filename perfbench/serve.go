package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"warplda"
	"warplda/internal/corpus"
	"warplda/internal/infer"
)

// serveModel is the model every serve stage trains during set-up and
// serves: small, so set-up stays cheap and the request path, not the
// engine, is what the serve workloads weigh.
var serveModel = trainSpec{
	K: 50, Iters: 30, CkEvery: 10, Target: 10.30,
	Corpus: func(seed uint64) (*corpus.Corpus, error) {
		return corpus.GenerateLDA(corpus.SyntheticConfig{
			D: 1000, V: 5000, K: 20, MeanLen: 100, Alpha: 0.1, Beta: 0.01, Seed: seed,
		})
	},
	Pinned: map[uint64]float64{1: 7.183800219861164, 7: 7.1712918063423094},
}

// Doc mix of inference requests and query documents: 70% of 16
// tokens, 30% of 128. In the open loop, inferShare of the requests are
// inference and the rest queries.
const (
	shortDoc, longDoc = 16, 128
	shortShare        = 0.7
	inferShare        = 0.7
)

// vocabWord is the synthetic label of word id i. Labels share prefixes
// in blocks of 100, which the vocab queries page through.
func vocabWord(i int) string { return fmt.Sprintf("w%05d", i) }

// streams are the generated inputs of a serve stage, all derived from
// the workload seed.
type streams struct {
	Infer  []request // single-document inference, the doc mix above
	Mix    []request // open-loop mix: 70% infer, 30% queries
	Probes [][]int32 // documents whose θ is checked against in-process inference
}

const streamLen = 4096

func makeStreams(seed uint64, c *corpus.Corpus, k int) streams {
	r := rand.New(rand.NewPCG(seed, 0x5e7e))
	var pool []int32
	for d := range c.NumDocs() {
		pool = append(pool, c.Doc(d)...)
	}
	doc := func(n int) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = pool[r.IntN(len(pool))]
		}
		return out
	}
	mixDoc := func() []int32 {
		if r.Float64() < shortShare {
			return doc(shortDoc)
		}
		return doc(longDoc)
	}
	inferReq := func(d []int32) request {
		b, _ := json.Marshal(map[string]any{"docs": [][]int32{d}})
		return request{Kind: "infer", Method: "POST", Path: "/v1/models/" + modelName + "/infer", Body: b, Doc: d}
	}
	var s streams
	for range streamLen {
		s.Infer = append(s.Infer, inferReq(mixDoc()))
	}
	q := "/v1/models/" + modelName + "/query/"
	for range streamLen {
		if r.Float64() < inferShare {
			s.Mix = append(s.Mix, inferReq(mixDoc()))
			continue
		}
		// The query mix and parameters of cmd/warplda-loadgen's query
		// workload: 60% topwords, 25% similar, 15% vocab.
		switch u := r.Float64(); {
		case u < 0.60:
			t := r.IntN(k)
			s.Mix = append(s.Mix, request{Kind: "topwords", Method: "GET",
				Path: fmt.Sprintf("%stopwords?topic=%d&limit=20", q, t), Topic: t, Limit: 20})
		case u < 0.85:
			qd := mixDoc()
			cands := make([][]int32, 4+r.IntN(5))
			for i := range cands {
				cands[i] = mixDoc()
			}
			b, _ := json.Marshal(map[string]any{"query": qd, "docs": cands})
			s.Mix = append(s.Mix, request{Kind: "similar", Method: "POST", Path: q + "similar", Body: b,
				Doc: qd, Cands: cands, Limit: serveQueryLimit})
		default:
			prefix := vocabWord(r.IntN(c.NumWords()))[:4]
			s.Mix = append(s.Mix, request{Kind: "vocab", Method: "GET",
				Path: fmt.Sprintf("%svocab?prefix=%s&limit=50", q, prefix), Prefix: prefix, Limit: 50})
		}
	}
	for range 8 {
		s.Probes = append(s.Probes, mixDoc())
	}
	return s
}

// serveSetup is one set-up of the serve stage: the model trained and
// published, and the server running on its base snapshot.
type serveSetup struct {
	Dur     time.Duration // wall time, hostRef calls left out
	Pass    trainPass
	BaseSum [32]byte // sha256 of the base snapshot, equal across set-ups
	Base    string   // the served base snapshot
	Models  string   // the directory the server serves
	Deltas  []string // staged delta files, generation 1 first (stageDeltas)
	srv     *server
	streams streams
	trained trained
	vocab   []string
	pub     *warplda.DeltaPublisher
}

// setUpServe trains the serve model from scratch, publishes its base
// snapshot with the library's DeltaPublisher into a staging directory,
// copies the base where the server will look, and starts the server.
// The publisher allows a chain of maxDeltas, so stageDeltas never
// rebases.
func setUpServe(bin, dir string, seed uint64, maxDeltas int, tr *tracer, traceID int64) (*serveSetup, error) {
	start := time.Now()
	stage, models, ck := filepath.Join(dir, "stage"), filepath.Join(dir, "models"), filepath.Join(dir, "ck")
	for _, d := range []string{stage, models, ck} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	pass, t, err := runTrainPass(serveModel, seed, ck, tr, traceID)
	if err != nil {
		return nil, fmt.Errorf("training the serve model: %w", err)
	}
	s := &serveSetup{Pass: pass, Models: models, Base: filepath.Join(models, modelName+".bin"), trained: t}
	s.vocab = make([]string, t.c.NumWords())
	for i := range s.vocab {
		s.vocab[i] = vocabWord(i)
	}
	if s.pub, err = warplda.NewDeltaPublisher(filepath.Join(stage, modelName), maxDeltas+1, 0); err != nil {
		return nil, err
	}
	base, err := s.pub.Publish(s.snapshot(), serveModel.Iters)
	if err != nil {
		return nil, fmt.Errorf("publishing the base snapshot: %w", err)
	}
	b, err := os.ReadFile(base.Path)
	if err != nil {
		return nil, err
	}
	s.BaseSum = sha256.Sum256(b)
	if err := os.WriteFile(s.Base, b, 0o644); err != nil {
		return nil, err
	}
	if s.srv, err = startServer(bin, models, filepath.Join(dir, "server.log")); err != nil {
		return nil, err
	}
	s.Dur = time.Since(start) - pass.RefTotal
	s.streams = makeStreams(seed, t.c, t.cfg.K)
	return s, nil
}

func (s *serveSetup) snapshot() *warplda.Model {
	m := warplda.Snapshot(s.trained.c, s.trained.w, s.trained.cfg)
	m.Vocab = s.vocab
	return m
}

// stageDeltas trains n more iterations and publishes a delta after
// each, into the staging directory; the load phase installs them. They
// are inputs of the refresh phase, so their cost is not set-up time.
func (s *serveSetup) stageDeltas(n int) error {
	for g := 1; g <= n; g++ {
		s.trained.w.Iterate()
		r, err := s.pub.Publish(s.snapshot(), serveModel.Iters+g)
		if err != nil {
			return fmt.Errorf("publishing delta %d: %w", g, err)
		}
		if r.Full || r.Gen != int64(g) {
			return fmt.Errorf("publish %d: want delta generation %d, got full=%v gen=%d", g, g, r.Full, r.Gen)
		}
		s.Deltas = append(s.Deltas, r.Path)
	}
	return nil
}

// checkProbes sends the probe documents and compares each θ with the
// engine built in-process from the same model file, bit for bit.
func checkProbes(s *serveSetup) error {
	m, err := readModel(s.Base)
	if err != nil {
		return err
	}
	eng, err := infer.NewEngine(infer.Params{V: m.V, K: m.Cfg.K, Alpha: m.Cfg.Alpha, Beta: m.Cfg.Beta, Cw: m.Cw, Ck: m.Ck},
		infer.Options{MHSteps: serveMH})
	if err != nil {
		return err
	}
	for i, doc := range s.streams.Probes {
		got, err := s.srv.inferTheta(doc)
		if err != nil {
			return err
		}
		// The server seeds each document from its content and the base
		// seed; InferBatch derives the same per-document seed.
		want, err := eng.InferBatch([][]int32{doc}, serveSweeps, serveSeed)
		if err != nil {
			return err
		}
		if !slices.Equal(got, want[0]) {
			return fmt.Errorf("probe %d: server θ differs from in-process inference on the same model file", i)
		}
	}
	return nil
}

// phaseCounts are the request counts of one load phase, so every
// ratio reported comes with its base.
type phaseCounts struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Shed      int `json:"shed"`
}

func countPhase(samples []sample) phaseCounts {
	var c phaseCounts
	for _, s := range samples {
		c.Attempted++
		switch {
		case s.ok():
			c.Succeeded++
		case s.shed():
			c.Shed++
		default:
			c.Failed++
		}
	}
	return c
}

// serveRun is what the load phases measured.
type serveRun struct {
	Closed, Open       []sample
	ClosedDur          time.Duration
	Installs           []time.Time // when delta g+1 appeared
	BaseVersion        int
	Before, Mid, After serverStats
	Generation         int64
}

// runLoad runs the closed phase, then the open phase with deltas
// installed at an even pace, then waits for the last fold.
func runLoad(s *serveSetup, closed, open time.Duration, rate float64, tr *tracer) (serveRun, error) {
	var r serveRun
	var err error
	if r.Before, err = s.srv.stats(); err != nil {
		return r, err
	}
	// Each request is its own trace; the phase sets the high bits of
	// its id.
	do := func(phase int64, reqs []request, i int) outcome {
		id := tr.id()
		start := time.Now()
		o := s.srv.do(reqs[i%len(reqs)])
		tr.record(id, 0, phase<<32+int64(i), "http."+reqs[i%len(reqs)].Kind, start, time.Now())
		return o
	}
	t0 := time.Now()
	r.Closed = closedLoop(wallClock{}, t0.Add(closed), 2, func(i int) outcome { return do(3, s.streams.Infer, i) })
	r.ClosedDur = time.Since(t0)
	if r.Mid, err = s.srv.stats(); err != nil {
		return r, err
	}
	mi, err := s.srv.modelInfo()
	if err != nil {
		return r, err
	}
	r.BaseVersion = mi.Version

	// Deltas go in over all but the last second (or half) of the phase,
	// so the last one has time to reach a response before it ends.
	start := time.Now().Add(10 * time.Millisecond)
	until := start.Add(open)
	pace := max(open-time.Second, open/2) / time.Duration(len(s.Deltas))
	installed := make(chan error, 1)
	go func() {
		for g, path := range s.Deltas {
			wallClock{}.SleepUntil(start.Add(pace/2 + time.Duration(g)*pace))
			if err := os.Rename(path, filepath.Join(s.Models, filepath.Base(path))); err != nil {
				installed <- err
				return
			}
			r.Installs = append(r.Installs, time.Now())
		}
		installed <- nil
	}()
	r.Open = openLoop(wallClock{}, start, until, rate, 2, func(i int) outcome { return do(4, s.streams.Mix, i) })
	if err := <-installed; err != nil {
		return r, fmt.Errorf("installing delta: %w", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if mi, err = s.srv.modelInfo(); err != nil {
			return r, err
		}
		r.Generation = mi.Generation
		if r.Generation >= int64(len(s.Deltas)) || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r.After, err = s.srv.stats(); err != nil {
		return r, err
	}
	return r, nil
}

// refreshLags returns, per installed delta, the time from the file
// appearing to the first completed response that carried the version
// folding it. Missing entries (never observed) are reported by count.
func refreshLags(r serveRun) (lags []time.Duration, missing int) {
	done := slices.Clone(r.Open)
	slices.SortFunc(done, func(a, b sample) int { return a.Done.Compare(b.Done) })
	for g, at := range r.Installs {
		want := r.BaseVersion + g + 1
		i, _ := slices.BinarySearchFunc(done, at, func(s sample, t time.Time) int { return s.Done.Compare(t) })
		found := false
		for ; i < len(done); i++ {
			if done[i].ok() && done[i].Version >= want {
				lags = append(lags, done[i].Done.Sub(at))
				found = true
				break
			}
		}
		if !found {
			missing++
		}
	}
	return lags, missing
}

// latencies returns the latencies, from the due time, of the
// successful samples whose request kind matches.
func latencies(samples []sample, reqs []request, match func(kind string) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok() && match(reqs[s.Index%len(reqs)].Kind) {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

func isInfer(kind string) bool { return kind == "infer" }
func isQuery(kind string) bool { return kind != "infer" }

// writeSamples writes every load request's timeline, one CSV row each,
// times in ms from the start of its phase.
func writeSamples(path string, r serveRun, st streams) error {
	var b strings.Builder
	b.WriteString("phase,index,kind,due_ms,late_ms,latency_ms,status,version\n")
	for _, ph := range []struct {
		name    string
		samples []sample
		reqs    []request
	}{{"closed", r.Closed, st.Infer}, {"open", r.Open, st.Mix}} {
		if len(ph.samples) == 0 {
			continue
		}
		t0 := ph.samples[0].Due
		for _, s := range ph.samples {
			fmt.Fprintf(&b, "%s,%d,%s,%.3f,%.3f,%.3f,%d,%d\n", ph.name, s.Index, ph.reqs[s.Index%len(ph.reqs)].Kind,
				ms(s.Due.Sub(t0)), ms(s.late()), ms(s.latency()), s.Status, s.Version)
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
