package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"warplda/internal/hist"
	"warplda/internal/infer"
	"warplda/internal/registry"
)

// Option values the server under test runs with. Everything not set
// here is the binary's default; serverFlags records the full command
// line in each result.
const (
	modelName   = "bench"
	serveSeed   = 42
	serveSweeps = 20
	serveMH     = 2
	// The server's defaults for coalescing, repeated for the in-process
	// replay (see replay.go).
	serveBatchMax   = 32
	serveLinger     = time.Millisecond
	serveQueueDepth = 256
	// serveQueryLimit is the server's default page size (-query-limit),
	// which similar requests leave unset.
	serveQueryLimit = 50
	// reloadInterval is the delta poll period. Short, so refresh lag
	// measures fold and hand-off rather than the wait for the next poll.
	reloadInterval = 2 * time.Millisecond
)

// server is one running warplda-serve process.
type server struct {
	cmd   *exec.Cmd
	base  string // http://host:port
	flags []string
	log   *os.File
	http  *http.Client
	done  chan struct{}
	err   error // Wait's result, valid after done closes

	stopOnce sync.Once
}

func serverFlags(modelsDir, addr string) []string {
	return []string{
		"-models-dir", modelsDir,
		"-default", modelName,
		"-addr", addr,
		"-reload-interval", reloadInterval.String(),
		"-seed", strconv.Itoa(serveSeed),
		"-sweeps", strconv.Itoa(serveSweeps),
		"-mh", strconv.Itoa(serveMH),
		"-workers", "2",
	}
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches the binary on modelsDir and waits until it
// answers /v1/healthz; the default model is loaded before the server
// listens, so a healthy server is ready to infer.
func startServer(bin, modelsDir, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	s := &server{
		base:  "http://" + addr,
		flags: serverFlags(modelsDir, addr),
		log:   logf,
		done:  make(chan struct{}),
		http: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     2,
				MaxIdleConnsPerHost: 2,
				DisableCompression:  true,
			},
		},
	}
	s.cmd = exec.Command(bin, s.flags...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// The server must not outlive the harness, even if it is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := s.http.Get(s.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			logf.Close()
			return nil, fmt.Errorf("server exited before ready (%v); log in %s", s.err, logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server not ready after 60s; log in %s", logPath)
		}
	}
}

// peakRSSMB returns the server's peak resident set (VmHWM) in MB.
// rusage is no use here: Linux carries the parent's high-water mark
// into a child across exec.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// stop drains the server with SIGTERM, kills it if it has not exited
// within 10s, and waits for it. Calling it again is harmless.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		s.http.CloseIdleConnections()
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
		s.log.Close()
	})
}

// request is one pre-encoded HTTP request of a load stream, with the
// parameters it encodes kept for the in-process replay.
type request struct {
	Kind   string // "infer", "topwords", "similar" or "vocab"
	Method string
	Path   string
	Body   []byte

	Doc    []int32   // infer document, similar query document
	Cands  [][]int32 // similar candidates
	Topic  int       // topwords
	Prefix string    // vocab
	Limit  int       // query page size
}

// do sends r and returns its status and the response's model version.
// Only the version is decoded; the harness checks θ values separately.
func (s *server) do(r request) outcome {
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequest(r.Method, s.base+r.Path, body)
	if err != nil {
		return outcome{}
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return outcome{}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return outcome{}
	}
	o := outcome{Status: resp.StatusCode}
	if o.ok() {
		var v struct {
			Version int `json:"version"`
		}
		if json.Unmarshal(b, &v) != nil {
			o.Status = 0 // a 200 that does not parse is a failure
		}
		o.Version = v.Version
	}
	return o
}

// getJSON decodes a GET response body into v.
func (s *server) getJSON(path string, v any) error {
	resp, err := s.http.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// inferTheta sends one document and returns the θ the server computed.
func (s *server) inferTheta(doc []int32) ([]float64, error) {
	body, _ := json.Marshal(map[string]any{"docs": [][]int32{doc}})
	resp, err := s.http.Post(s.base+"/v1/models/"+modelName+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("probe infer: status %d", resp.StatusCode)
	}
	var out struct {
		Topics [][]float64 `json:"topics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if len(out.Topics) != 1 {
		return nil, fmt.Errorf("probe infer: %d θ rows for one document", len(out.Topics))
	}
	return out.Topics[0], nil
}

// serverStats is the part of GET /v1/stats the benchmark reads.
type serverStats struct {
	DocsServed     int64          `json:"docs_served"`
	QueriesServed  int64          `json:"queries_served"`
	LatencyUs      hist.Snapshot  `json:"latency_us"`
	QueryLatencyUs hist.Snapshot  `json:"query_latency_us"`
	Registry       registry.Stats `json:"registry"`
	Batchers       map[string]struct {
		infer.BatcherStats
		QueueLen int `json:"queue_len"`
	} `json:"batchers"`
	QueryGates map[string]infer.GateStats `json:"query_gates"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	err := s.getJSON("/v1/stats", &st)
	return st, err
}

func (s *server) modelInfo() (registry.ModelInfo, error) {
	var mi registry.ModelInfo
	err := s.getJSON("/v1/models/"+modelName, &mi)
	return mi, err
}
