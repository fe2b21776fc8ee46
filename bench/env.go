package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/analytics"
	"repro/internal/edge"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/partition"
	"repro/internal/serve"
)

// The system under test is sized for a 2-core box: two resident ranks of
// one worker thread each, and never more than two client connections.
const (
	ranks          = 2
	threadsPerRank = 1
	maxClients     = 2
	// graphd's flag defaults (cmd/graphd/main.go).
	queueCap      = 64
	batchMax      = 8
	cacheCap      = 256
	partitionSeed = 0xFACE
	// avgDegree is the web-crawl stand-in's edge factor (m = 36 n).
	avgDegree = 36
	// graphSeed fixes the graph: it is the benchmark's data set, the same
	// in every run, and --seed draws the operations on it. R-MAT graphs of
	// one size differ by seed in BFS depth and component structure enough to
	// move throughput by 6%, which ten differently seeded runs would then
	// report as spread.
	graphSeed = 7
)

// input is the generated graph: the edge list (kept for the oracle and for
// mutation generation) and the binary edge file the program loads.
type input struct {
	spec  gen.Spec
	edges edge.List
	n     uint32 // vertex count as the program discovers it: max id + 1
	path  string
	// genTime and writeTime feed the gen/gio per-layer rows.
	genTime, writeTime time.Duration
}

// makeInput generates the R-MAT graph of 2^logN vertices and writes it to
// dir as a binary edge file, the form `graphd -file` ingests.
func makeInput(dir string, logN int) (*input, error) {
	n := uint32(1) << logN
	in := &input{
		spec: gen.Spec{Kind: gen.RMAT, NumVertices: n, NumEdges: uint64(n) * avgDegree, Seed: graphSeed},
		path: filepath.Join(dir, "edges.bin"),
	}
	start := time.Now()
	edges, err := in.spec.GenerateAll()
	if err != nil {
		return nil, err
	}
	in.genTime = time.Since(start)
	in.edges = edges
	maxV, ok := edges.MaxVertex()
	if !ok {
		return nil, fmt.Errorf("generated graph has no edges")
	}
	in.n = maxV + 1
	start = time.Now()
	if err := gio.WriteFile(in.path, edges); err != nil {
		return nil, err
	}
	in.writeTime = time.Since(start)
	return in, nil
}

// sourcePool returns the vertices with at least one in- and one out-edge,
// in a seed-determined order. Queries draw sources from it so no traversal
// is trivially empty, whichever direction it runs.
func (in *input) sourcePool(rng *splitmix) []uint32 {
	hasOut := make([]bool, in.n)
	hasIn := make([]bool, in.n)
	for i := 0; i < in.edges.Len(); i++ {
		hasOut[in.edges.Src(i)] = true
		hasIn[in.edges.Dst(i)] = true
	}
	var pool []uint32
	for v := uint32(0); v < in.n; v++ {
		if hasOut[v] && hasIn[v] {
			pool = append(pool, v)
		}
	}
	shuffle(rng, pool)
	return pool
}

// splitmix is the benchmark's seeded generator (SplitMix64): small, fast,
// and stable across Go releases, unlike math/rand's stream.
type splitmix struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *splitmix {
	return &splitmix{s: seed*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// shuffle is Fisher–Yates over xs.
func shuffle[T any](r *splitmix, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// service is a resident graphd: cluster, scheduler and HTTP API wired as
// cmd/graphd/main.go wires them, behind a loopback listener in this
// process, so the same cluster can also be driven directly for the
// per-layer rows.
type service struct {
	cl      *serve.Cluster
	sched   *serve.Scheduler
	httpSrv *http.Server
	served  chan struct{}
	src     *gio.Reader
	url     string
	client  *http.Client
	tr      *tracer
}

// startService builds the resident cluster from in's edge file and serves
// it. storeDir, when non-empty, attaches the persistent shard store.
func startService(in *input, storeDir string, tr *tracer) (*service, error) {
	src, err := gio.Open(in.path)
	if err != nil {
		return nil, err
	}
	cl, err := serve.NewCluster(serve.ClusterConfig{
		Ranks:     ranks,
		Threads:   threadsPerRank,
		Source:    src,
		Partition: partition.Random,
		Seed:      partitionSeed,
		Epoch:     1,
		StoreDir:  storeDir,
	})
	if err != nil {
		src.Close()
		return nil, err
	}
	s, err := serveCluster(cl, tr)
	if err != nil {
		cl.Close()
		src.Close()
		return nil, err
	}
	s.src = src
	return s, nil
}

// serveCluster puts the scheduler and the HTTP front end over a cluster.
func serveCluster(cl *serve.Cluster, tr *tracer) (*service, error) {
	sched := serve.NewScheduler(cl, serve.SchedConfig{QueueCap: queueCap, BatchMax: batchMax, CacheCap: cacheCap})
	sched.Start()
	var handler http.Handler = serve.NewServer(sched, serve.ServerConfig{DefaultTimeout: 30 * time.Second})
	if tr != nil {
		handler = tracedHandler(handler, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Close()
		return nil, err
	}
	s := &service{
		cl:      cl,
		sched:   sched,
		httpSrv: &http.Server{Handler: handler},
		served:  make(chan struct{}),
		url:     "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: maxClients, MaxConnsPerHost: maxClients},
		},
		tr: tr,
	}
	go func() {
		_ = s.httpSrv.Serve(ln) // returns ErrServerClosed once close runs
		close(s.served)
	}()
	return s, nil
}

// close shuts the service down in graphd's order and waits for the
// listener goroutine.
func (s *service) close() error {
	s.client.CloseIdleConnections()
	s.httpSrv.Close()
	<-s.served
	s.sched.Close()
	err := s.cl.Close()
	if s.src != nil {
		s.src.Close()
	}
	return err
}

const (
	spanHeader = "X-Bench-Span"
	opHeader   = "X-Bench-Op"
)

// tracedHandler records one span per request around the program's HTTP
// handler, parented to the client span named in the request headers.
func tracedHandler(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		id := tr.start(parent, op, "serve.handler")
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// reply is any JSON answer of the API: a request view, or an error body.
type reply struct {
	serve.RequestView
	AdmissionError string `json:"admission_error,omitempty"`
	// Admin endpoints.
	Compacted bool   `json:"compacted,omitempty"`
	Persisted bool   `json:"persisted,omitempty"`
	Epoch     uint64 `json:"epoch,omitempty"`
	Detail    string `json:"detail,omitempty"`
}

// call makes one HTTP round trip (POST when body is non-nil, else GET)
// inside a client span and decodes the JSON answer.
func (s *service) call(op, parent int64, path string, body any) (int, *reply, error) {
	id := s.tr.start(parent, op, "http.roundtrip")
	defer s.tr.end(id)
	method := http.MethodGet
	var rd io.Reader
	if body != nil {
		method = http.MethodPost
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, s.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if s.tr != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var rep reply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
	}
	return resp.StatusCode, &rep, nil
}

// queryBody is the POST /v1/query body.
type queryBody struct {
	analytics.Job
	Wait bool `json:"wait,omitempty"`
}

// mutateBody is the POST /v1/mutate body.
type mutateBody struct {
	Mutations edge.Batch `json:"mutations"`
	Wait      bool       `json:"wait,omitempty"`
}

// query posts one job with wait:true and returns its result, or an error
// for anything but a 200 with a done job.
func (s *service) query(op, parent int64, job *analytics.Job) (*reply, error) {
	status, rep, err := s.call(op, parent, "/v1/query", queryBody{Job: *job, Wait: true})
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK || rep.State != serve.StateDone {
		return nil, fmt.Errorf("%s query: HTTP %d state %q: %s%s", job.Analytic, status, rep.State, rep.Err, rep.AdmissionError)
	}
	return rep, nil
}

// statsReply is the part of GET /v1/stats the per-layer rows use.
type statsReply struct {
	Scheduler serve.SchedStats `json:"scheduler"`
	JobsRun   uint64           `json:"jobs_run"`
}

// stats reads the scheduler counters the way an operator would.
func (s *service) stats() (*statsReply, error) {
	resp, err := s.client.Get(s.url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st statsReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// removeAll deletes path; a failure is only worth a warning because the
// work directory is scratch space.
func removeAll(path string) {
	if err := os.RemoveAll(path); err != nil {
		fmt.Fprintf(os.Stderr, "bench: cleanup %s: %v\n", path, err)
	}
}

// submitWait answers one job through the scheduler, the way the HTTP
// handler does.
func submitWait(s *serve.Scheduler, job *analytics.Job) (*analytics.JobResult, error) {
	deadline := time.Now().Add(30 * time.Second)
	id, err := s.Submit(job, deadline)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	v, ok := s.Wait(ctx, id)
	if !ok || v.State != serve.StateDone {
		return nil, fmt.Errorf("job %s: state %q: %s", id, v.State, v.Err)
	}
	return v.Result, nil
}
