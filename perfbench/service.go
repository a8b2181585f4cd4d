package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"mime/multipart"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"lams/internal/mesh"
	"lams/pkg/lamsd"
)

// openRate is the open-loop request rate of service-mixed, in requests per
// second: about half of what the service sustains in its closed loop on a
// 2-vCPU host. BENCHMARK.json states it in the workload's description.
const openRate = 180

// Service workload shape.
const (
	svc2D     = 8 // resident 2D meshes, uploaded at set-up
	svc3D     = 2 // resident 3D meshes, generated server-side at set-up
	setupReps = 5 // set-ups per run; setup_s is their median
	// minOpenReq is the shortest open loop: p99 then rests on ten requests
	// beyond it. A timed run's open loop fills two thirds of its duration
	// and the closed loop the rest.
	minOpenReq = 1000
	minClosed  = time.Second
	maxPending = 4 // transient uploads a connection keeps before deleting
	// svcDropAfter: a request its connection could not send within this
	// long of its due time is dropped, and counts as missing every latency
	// limit.
	svcDropAfter = 2 * time.Second
)

type opKind int

const (
	opUpload opKind = iota
	opGet
	opExport
	opReorder
	opSmooth
	opJob
	opAnalyze
	opDelete
	numOps
)

var opNames = [numOps]string{"upload", "get", "export", "reorder", "smooth", "job_accept", "analyze", "delete"}

// opWeights is the request mix, in requests per 110. It is cmd/lamsload's
// mix (smooth 50, reorder 15, analyze 10, get 15, and 10 create-delete
// churns of two requests each) with a fifth of the smooth share sent as
// async jobs and a third of the get share as exports, the two operations
// lamsload lacks; those two splits are this benchmark's assumption.
var opWeights = [numOps]int{opSmooth: 40, opJob: 10, opReorder: 15, opAnalyze: 10, opGet: 10, opExport: 5, opUpload: 10, opDelete: 10}

// request is one operation of the load. Mesh refers to a resident mesh
// (every op but delete) or, for upload, to the mesh whose copy is sent.
type request struct {
	due      time.Duration // open loop: offset from the phase start
	op       opKind
	mesh     int
	conn     int
	ordering string
}

// session is one service workload: the meshes and the scripted or drawn
// requests that run against them.
type session struct {
	name   string
	meshes []serviceMesh
	// bodies are the prebuilt POST /v1/meshes bodies of the meshes.
	bodies [][]byte
	ctypes []string
	conns  int
	// script, when set, replaces the drawn open-loop requests.
	script []request
	// dropAfter is how late a request may be sent; 0 never drops.
	dropAfter time.Duration
}

func newSession(name string, meshes []serviceMesh, conns int) (*session, error) {
	s := &session{name: name, meshes: meshes, conns: conns}
	for _, m := range meshes {
		body, ctype, err := uploadBody(m)
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, body)
		s.ctypes = append(s.ctypes, ctype)
	}
	return s, nil
}

// uploadBody is the POST /v1/meshes body: a multipart upload for 2D, a
// generate request for 3D.
func uploadBody(m serviceMesh) ([]byte, string, error) {
	if m.Dim == 3 {
		b, err := json.Marshal(map[string]any{"domain": "cube", "dim": 3, "target_verts": m.Verts, "jitter": m.Jitter})
		return b, "application/json", err
	}
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, part := range []struct {
		name string
		data []byte
	}{{"node", m.Input.Node}, {"ele", m.Input.Ele}} {
		w, err := mw.CreateFormFile(part.name, m.Name+"."+part.name)
		if err != nil {
			return nil, "", err
		}
		if _, err := w.Write(part.data); err != nil {
			return nil, "", err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), mw.FormDataContentType(), nil
}

// jobTarget reports whether async jobs may run on resident mesh i. Jobs
// run past the request that started them, so their meshes are never
// reordered: a reorder racing a smooth is answered 409 by design.
func (s *session) jobTarget(i int) bool { return s.meshes[i].Dim == 3 || i%4 == 0 }

// draw makes n requests for connection conn in the workload's mix. The
// operations come from decks that hold each one in exact proportion to its
// weight, shuffled with rng, and each operation cycles over its target
// meshes, so a seed changes the order of the work but not its amount. Each
// resident mesh belongs to one connection, so operations on a mesh never
// overlap except for async jobs, which run only on job targets.
func (s *session) draw(rng *rand.Rand, n int, conn int, pending *int) []request {
	var deck []opKind
	for op := opKind(0); op < numOps; op++ {
		for i := 0; i < opWeights[op]; i++ {
			deck = append(deck, op)
		}
	}
	var mine, mine2D, jobs, sources []int
	for i, m := range s.meshes {
		if m.Dim == 2 {
			sources = append(sources, i)
		}
		if i%s.conns != conn {
			continue
		}
		mine = append(mine, i)
		if m.Dim == 2 && !s.jobTarget(i) {
			mine2D = append(mine2D, i)
		}
		if s.jobTarget(i) {
			jobs = append(jobs, i)
		}
	}
	targets := [numOps][]int{opUpload: sources, opReorder: mine2D, opJob: jobs}
	for _, op := range []opKind{opGet, opExport, opSmooth, opAnalyze} {
		targets[op] = mine
	}
	orderings := []string{"RDR", "BFS", "HILBERT"}
	var next [numOps]int
	out := make([]request, 0, n)
	for len(out) < n {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		for _, op := range deck {
			if len(out) == n {
				break
			}
			switch {
			case op == opDelete && *pending == 0:
				op = opUpload
			case op == opUpload && *pending >= maxPending:
				op = opDelete
			}
			r := request{op: op, conn: conn}
			switch op {
			case opUpload:
				*pending++
			case opDelete:
				*pending--
				out = append(out, r)
				continue
			}
			if len(targets[op]) == 0 {
				continue
			}
			k := next[op]
			next[op]++
			r.mesh = targets[op][k%len(targets[op])]
			if op == opReorder {
				r.ordering = orderings[k%len(orderings)]
			}
			out = append(out, r)
		}
	}
	return out
}

// service is an in-process lamsd behind a loopback HTTP listener.
type service struct {
	srv    *lamsd.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	dir    string
}

// startService opens a durable lamsd (snapshot plus job journal) in a new
// temporary data directory and serves it on a loopback port.
func startService(conns int) (*service, error) {
	dir, err := os.MkdirTemp("", "lamsd-bench-")
	if err != nil {
		return nil, err
	}
	// The periodic snapshot is left to its hour-long timer so it never
	// lands inside a measurement; lamsd.snapshot_s times it explicitly.
	srv, err := lamsd.Open(
		lamsd.WithPersistence(dir, time.Hour),
		lamsd.WithJobRetention(time.Hour, 1<<20),
		lamsd.WithMaxMeshes(1024),
	)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		}},
		dir: dir,
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener, waits for the server goroutine, closes lamsd
// and removes its data directory.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// call sends one HTTP request and returns the status and the whole body.
func (s *service) call(method, path, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// outcome is what one request returned, after its check.
type outcome struct {
	err      error
	engineMS float64 // smooth: the response's duration_ms
	queued   int64   // smooth: the pool's queue length when it served the run
	jobID    string
	meshID   string // upload: the new mesh
}

// conn is one client connection's view of the service: the server ids of
// the resident meshes and its own pending transient uploads.
type conn struct {
	svc     *service
	ids     []string // resident mesh index -> server id
	sess    *session
	pending []string
}

// do sends r and checks the response.
func (c *conn) do(r request) outcome {
	var st int
	var body []byte
	var err error
	id := ""
	if r.op != opUpload && r.op != opDelete {
		id = c.ids[r.mesh]
	}
	switch r.op {
	case opUpload:
		st, body, err = c.svc.call("POST", "/v1/meshes", c.sess.ctypes[r.mesh], c.sess.bodies[r.mesh])
	case opGet:
		st, body, err = c.svc.call("GET", "/v1/meshes/"+id, "", nil)
	case opExport:
		var node, ele []byte
		st, node, err = c.svc.call("GET", "/v1/meshes/"+id+"/export?part=node", "", nil)
		if err == nil && st == http.StatusOK {
			st, ele, err = c.svc.call("GET", "/v1/meshes/"+id+"/export?part=ele", "", nil)
		}
		if err == nil && st == http.StatusOK {
			return outcome{err: checkExport(c.sess.meshes[r.mesh].Dim, node, ele)}
		}
	case opReorder:
		st, body, err = c.svc.call("POST", "/v1/meshes/"+id+"/reorder", "application/json",
			[]byte(fmt.Sprintf(`{"ordering":%q}`, r.ordering)))
	case opSmooth:
		st, body, err = c.svc.call("POST", "/v1/meshes/"+id+"/smooth", "application/json", smoothBody)
	case opJob:
		st, body, err = c.svc.call("POST", "/v1/meshes/"+id+"/smooth?async=1", "application/json", smoothBody)
	case opAnalyze:
		st, body, err = c.svc.call("GET", "/v1/meshes/"+id+"/analyze", "", nil)
	case opDelete:
		id, c.pending = c.pending[0], c.pending[1:]
		st, body, err = c.svc.call("DELETE", "/v1/meshes/"+id, "", nil)
	}
	if err != nil {
		return outcome{err: fmt.Errorf("%s: %w", opNames[r.op], err)}
	}
	o := checkResponse(r.op, st, body)
	if r.op == opUpload && o.err == nil {
		c.pending = append(c.pending, o.meshID)
	}
	return o
}

// smoothBody is every smooth request's, sync and async: cmd/lamsload's two
// sweeps at one worker, with the tolerance off so each run does the same
// work however smooth its mesh has become.
var smoothBody = []byte(`{"workers":1,"max_iters":2,"tol":-1}`)

// wantStatus is the status each operation must answer with.
var wantStatus = [numOps]int{
	opUpload: http.StatusCreated, opGet: http.StatusOK, opExport: http.StatusOK,
	opReorder: http.StatusOK, opSmooth: http.StatusOK, opJob: http.StatusAccepted,
	opAnalyze: http.StatusOK, opDelete: http.StatusNoContent,
}

// checkResponse checks one response: its status, that its body decodes,
// and that the decoded values are plausible.
func checkResponse(op opKind, status int, body []byte) outcome {
	fail := func(format string, args ...any) outcome {
		return outcome{err: fmt.Errorf("%s: "+format, append([]any{opNames[op]}, args...)...)}
	}
	if status != wantStatus[op] {
		return fail("status %d, want %d: %.200s", status, wantStatus[op], body)
	}
	var v struct {
		ID         string    `json:"id"`
		State      string    `json:"state"`
		Ordering   string    `json:"ordering"`
		Iterations int       `json:"iterations"`
		Final      float64   `json:"final_quality"`
		Accesses   int64     `json:"accesses"`
		DurationMS float64   `json:"duration_ms"`
		MissRates  []float64 `json:"miss_rates"`
		Pool       struct {
			Queued int64 `json:"queued"`
		} `json:"pool"`
	}
	if op == opDelete {
		if len(body) != 0 {
			return fail("unexpected body %.200s", body)
		}
		return outcome{}
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return fail("decoding response: %v", err)
	}
	if v.ID == "" {
		return fail("response has no id")
	}
	switch op {
	case opUpload:
		return outcome{meshID: v.ID}
	case opSmooth:
		if v.Iterations < 1 || v.Accesses <= 0 || !(v.Final > 0 && v.Final <= 1) {
			return fail("implausible result %+v", v)
		}
		return outcome{engineMS: v.DurationMS, queued: v.Pool.Queued}
	case opJob:
		if v.State == "failed" || v.State == "canceled" {
			return fail("job %s is %s", v.ID, v.State)
		}
		return outcome{jobID: v.ID}
	case opAnalyze:
		if len(v.MissRates) != 3 || v.Accesses <= 0 {
			return fail("implausible report %+v", v)
		}
	case opReorder:
		if v.Ordering == "" {
			return fail("no ordering in response")
		}
	}
	return outcome{}
}

// checkExport parses an exported mesh and validates it.
func checkExport(dim int, node, ele []byte) error {
	var err error
	if dim == 3 {
		var m *mesh.TetMesh
		if m, err = mesh.ReadTetNodeEle(bytes.NewReader(node), bytes.NewReader(ele)); err == nil {
			err = m.Validate()
		}
	} else {
		var m *mesh.Mesh
		if m, err = mesh.ReadNodeEle(bytes.NewReader(node), bytes.NewReader(ele)); err == nil {
			err = m.Validate()
		}
	}
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	return nil
}

// setup opens the service and creates the resident meshes over one
// connection.
func (s *session) setup() (*service, []string, error) {
	svc, err := startService(s.conns)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]string, len(s.meshes))
	for i := range s.meshes {
		st, body, err := svc.call("POST", "/v1/meshes", s.ctypes[i], s.bodies[i])
		if err == nil {
			o := checkResponse(opUpload, st, body)
			err, ids[i] = o.err, o.meshID
		}
		if err != nil {
			svc.stop()
			return nil, nil, fmt.Errorf("set-up upload %d: %w", i, err)
		}
	}
	return svc, ids, nil
}

// sample is one request as the load generator saw it.
type sample struct {
	op       opKind
	latency  float64 // seconds from due time to response (+Inf: dropped or failed)
	service  float64 // seconds from send to response
	late     float64 // seconds the send lagged the due time
	dropped  bool
	engineMS float64
	queued   int64
}

// phase is what one open- or closed-loop phase measured.
type phase struct {
	samples []sample
	jobs    []string
	failed  int
	elapsed float64
	allocMB float64
}

// openLoop sends reqs at their due times over the session's connections
// and times each from its due time.
func openLoop(svc *service, ids []string, s *session, reqs []request, tr *Tracer) *phase {
	return runLoad(svc, ids, s, reqs, tr, 0)
}

// closedLoop keeps every connection busy with reqs, back to back, for dur.
func closedLoop(svc *service, ids []string, s *session, reqs []request, dur time.Duration) *phase {
	return runLoad(svc, ids, s, reqs, nil, dur)
}

func runLoad(svc *service, ids []string, s *session, reqs []request, tr *Tracer, closed time.Duration) *phase {
	queues := make([][]request, s.conns)
	for _, r := range reqs {
		queues[r.conn] = append(queues[r.conn], r)
	}
	results := make([]*phase, s.conns)
	runtime.GC()
	alloc0 := totalAlloc()
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range queues {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := &conn{svc: svc, ids: ids, sess: s}
			p := &phase{}
			results[ci] = p
			for _, r := range queues[ci] {
				if closed > 0 && time.Since(start) >= closed {
					break
				}
				due := start.Add(r.due)
				if closed > 0 {
					due = time.Now()
				} else if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				smp := sample{op: r.op, late: sent.Sub(due).Seconds()}
				// A delete whose upload was dropped has nothing to delete.
				tooLate := closed == 0 && s.dropAfter > 0 && sent.Sub(due) > s.dropAfter
				if tooLate || (r.op == opDelete && len(c.pending) == 0) {
					smp.dropped, smp.latency = true, math.Inf(1)
					p.samples = append(p.samples, smp)
					continue
				}
				o := c.do(r)
				end := time.Now()
				smp.latency, smp.service = end.Sub(due).Seconds(), end.Sub(sent).Seconds()
				smp.engineMS, smp.queued = o.engineMS, o.queued
				if tr != nil {
					root := tr.Record("loadgen.request", -1, due, end)
					tr.Record("lamsd."+opNames[r.op], root, sent, end)
				}
				if o.jobID != "" {
					p.jobs = append(p.jobs, o.jobID)
				}
				if o.err != nil {
					// A failed request misses every latency limit too.
					smp.latency = math.Inf(1)
					p.failed++
					fmt.Fprintf(os.Stderr, "perfbench: FAILED: %v\n", o.err)
				}
				p.samples = append(p.samples, smp)
			}
			// Leave no transient mesh behind for the next phase.
			for len(c.pending) > 0 {
				if o := c.do(request{op: opDelete, conn: ci}); o.err != nil {
					p.failed++
					fmt.Fprintf(os.Stderr, "perfbench: FAILED: %v\n", o.err)
				}
			}
		}(ci)
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(start).Seconds(), allocMB: float64(totalAlloc()-alloc0) / 1e6}
	for _, p := range results {
		out.samples = append(out.samples, p.samples...)
		out.jobs = append(out.jobs, p.jobs...)
		out.failed += p.failed
	}
	return out
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// pollJob polls a job until it is terminal and returns the time from
// accepted to the poll that saw it done.
func pollJob(svc *service, id string, accepted time.Time) (float64, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, body, err := svc.call("GET", "/v1/jobs/"+id, "", nil)
		if err != nil {
			return 0, fmt.Errorf("polling job %s: %w", id, err)
		}
		var v struct {
			State  string          `json:"state"`
			Result json.RawMessage `json:"result"`
		}
		if st != http.StatusOK || json.Unmarshal(body, &v) != nil {
			return 0, fmt.Errorf("polling job %s: status %d: %.200s", id, st, body)
		}
		switch v.State {
		case "done":
			if len(v.Result) == 0 {
				return 0, fmt.Errorf("job %s done without a result", id)
			}
			return time.Since(accepted).Seconds(), nil
		case "failed", "canceled":
			return 0, fmt.Errorf("job %s ended %s: %s", id, v.State, body)
		}
		time.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("job %s not done after 60s", id)
}

// settleJobs requires every acknowledged job to reach done.
func settleJobs(svc *service, ids []string, out *Result) {
	for _, id := range ids {
		out.Attempted++
		if _, err := pollJob(svc, id, time.Now()); err != nil {
			out.fail(err)
		}
	}
}

func (p *phase) count(out *Result) {
	out.Attempted += len(p.samples)
	out.Failed += p.failed
}

func (p *phase) dropped() int {
	n := 0
	for _, smp := range p.samples {
		if smp.dropped {
			n++
		}
	}
	return n
}

// latencies picks one figure from the samples of op (all ops when op < 0).
func latencies(ss []sample, op opKind, pick func(sample) float64) []float64 {
	var out []float64
	for _, s := range ss {
		if op < 0 || s.op == op {
			out = append(out, pick(s))
		}
	}
	return out
}

// serviceRequests draws the open-loop script (n requests at openRate,
// round-robin over the connections' own streams) and the closed-loop
// streams.
func (s *session) serviceRequests(seed int64, n int) (open, closed []request) {
	rng := rand.New(rand.NewSource(seed))
	pending := make([]int, s.conns)
	per := make([][]request, s.conns)
	for c := range per {
		per[c] = s.draw(rng, (n+s.conns-1)/s.conns, c, &pending[c])
	}
	gap := time.Second / time.Duration(openRate)
	for i := 0; i < n; i++ {
		r := per[i%s.conns][i/s.conns]
		r.due = time.Duration(i) * gap
		open = append(open, r)
	}
	for c := 0; c < s.conns; c++ {
		p := 0
		closed = append(closed, s.draw(rng, 1<<16, c, &p)...)
	}
	return open, closed
}

// runService is service-mixed's timed part: set-up, an open-loop phase at
// openRate for two thirds of dur (at least minOpenReq requests), then a
// closed loop of nproc connections for the remaining third.
func runService(ctx context.Context, seed int64, dur time.Duration, out *Result) error {
	s, err := serviceSession(seed)
	if err != nil {
		return err
	}
	var setups []float64
	var svc *service
	var ids []string
	for i := 0; i < setupReps; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if svc, ids, err = s.setup(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer svc.stop()

	n := max(minOpenReq, int(openRate*(2*dur/3).Seconds()))
	openReqs, closedReqs := s.serviceRequests(seed, n)
	open := openLoop(svc, ids, s, openReqs, nil)
	closed := closedLoop(svc, ids, s, closedReqs, max(minClosed, dur/3))
	open.count(out)
	closed.count(out)
	settleJobs(svc, append(open.jobs, closed.jobs...), out)

	lat := Summarize(latencies(open.samples, -1, func(s sample) float64 { return 1e3 * s.latency }), 99)
	smooth := latencies(open.samples, opSmooth, func(s sample) float64 { return s.service })
	out.Report("open loop: %d requests at %d/s in %.2f s; p50 %.3f ms, p%.1f %.3f ms (n=%d), %d dropped",
		len(open.samples), openRate, open.elapsed, lat.P50, lat.TailP, lat.Tail, lat.N, open.dropped())
	out.Report("closed loop: %d requests over %d connections in %.2f s", len(closed.samples), s.conns, closed.elapsed)
	out.Set("setup_s", Median(setups), "s")
	out.Set("smooth_s", Median(smooth), "s")
	out.Set("alloc_mb", open.allocMB, "MB")
	out.Set("p50_ms", lat.P50, "ms")
	out.Set("p99_ms", lat.Tail, "ms")
	out.Set("throughput_rps", float64(len(closed.samples))/closed.elapsed, "1/s")
	return nil
}

func serviceSession(seed int64) (*session, error) {
	meshes, err := serviceMeshes(seed, svc2D, svc3D)
	if err != nil {
		return nil, err
	}
	s, err := newSession("service-mixed", meshes, nproc)
	if err != nil {
		return nil, err
	}
	s.dropAfter = svcDropAfter
	return s, nil
}

// traceService is service-mixed's traced pass: an untraced and a traced
// open-loop phase on the same server. Every traced result carries every
// per-layer metric, so the library layers, which the service crosses only
// in small warm runs, are then probed on the largest of its 2D meshes at
// the service's own settings; their figures are not part of the timed work.
func traceService(ctx context.Context, seed int64, spansPath string, out *Result) error {
	s, err := serviceSession(seed)
	if err != nil {
		return err
	}
	tr := NewTracer(s.name)
	if err := serviceLayers(ctx, s, seed, tr, out); err != nil {
		return err
	}
	big := 0
	for i, m := range s.meshes {
		if m.Dim == 2 && len(m.Input.Node) > len(s.meshes[big].Input.Node) {
			big = i
		}
	}
	spec := libSpec{name: s.name, ordering: "RDR", workers: 1, reuse: true, maxIters: 2}
	out.Report("library layers, probed on the service's largest 2D mesh (not its timed work):")
	if _, err := libLayers(ctx, spec, s.meshes[big].Input, tr, out); err != nil {
		return err
	}
	return writeSpans(spansPath, tr.Spans())
}

// serviceLayers runs the session's requests traced on one server and sets
// the lamsd and loadgen per-layer metrics. A drawn load first runs
// untraced as well, for the tracing overhead and the coverage of the
// traced phase; a script runs traced only.
func serviceLayers(ctx context.Context, s *session, seed int64, tr *Tracer, out *Result) error {
	svc, ids, err := s.setup()
	if err != nil {
		return err
	}
	defer svc.stop()
	reqs := s.script
	var plain *phase
	if reqs == nil {
		reqs, _ = s.serviceRequests(seed, minOpenReq)
		plain = openLoop(svc, ids, s, reqs, nil)
		plain.count(out)
		settleJobs(svc, plain.jobs, out)
	}
	traced := openLoop(svc, ids, s, reqs, tr)
	traced.count(out)
	settleJobs(svc, traced.jobs, out)

	for op := opKind(0); op < numOps; op++ {
		d := Summarize(latencies(traced.samples, op, func(s sample) float64 { return 1e3 * s.service }), 99)
		out.Set("lamsd."+opNames[op]+".p50_ms", d.P50, "ms")
		out.Report("lamsd %-10s p50 %9.3f ms  p%.1f %9.3f ms  n=%d", opNames[op], d.P50, d.TailP, d.Tail, d.N)
	}
	engine := latencies(traced.samples, opSmooth, func(s sample) float64 { return s.engineMS })
	overhead := latencies(traced.samples, opSmooth, func(s sample) float64 { return 1e3*s.service - s.engineMS })
	var queuedMax int64
	for _, smp := range traced.samples {
		queuedMax = max(queuedMax, smp.queued)
	}

	// Job turnaround, accept to done: one job at a time on each job target,
	// after the load, so polling never delays a scheduled request.
	var turn []float64
	c := &conn{svc: svc, ids: ids, sess: s}
	for i := range s.meshes {
		if !s.jobTarget(i) {
			continue
		}
		out.Attempted++
		o := c.do(request{op: opJob, mesh: i})
		accepted := time.Now()
		if o.err == nil {
			var t float64
			t, o.err = pollJob(svc, o.jobID, accepted)
			turn = append(turn, 1e3*t)
		}
		if o.err != nil {
			out.fail(o.err)
		}
	}

	hits, misses, err := poolCounts(svc)
	if err != nil {
		return err
	}
	var snaps []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := svc.srv.Snapshot(); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		snaps = append(snaps, time.Since(t0).Seconds())
	}
	late := Summarize(latencies(traced.samples, -1, func(s sample) float64 { return 1e3 * s.late }), 99)
	out.Set("lamsd.smooth.engine_ms", Median(engine), "ms")
	out.Set("lamsd.smooth.overhead_ms", Median(overhead), "ms")
	out.Set("lamsd.job.turnaround_ms", Median(turn), "ms")
	out.Set("lamsd.pool.hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	out.Set("lamsd.pool.queued_max", float64(queuedMax), "count")
	out.Set("lamsd.snapshot_s", Median(snaps), "s")
	out.Set("loadgen.late_ms", late.Tail, "ms")
	out.Set("loadgen.dropped", float64(traced.dropped()), "count")
	out.Report("pool hit ratio %.4f of %d checkouts; snapshot %.4f s; job turnaround %.3f ms (n=%d)",
		float64(hits)/float64(hits+misses), hits+misses, Median(snaps), Median(turn), len(turn))
	out.Report("generator late p%.1f %.3f ms, %d dropped", late.TailP, late.Tail, traced.dropped())
	if plain == nil {
		return nil
	}

	// Coverage: each request's latency from its due time (the root span)
	// against the time it spent inside the service call (its lamsd span).
	spans := tr.Spans()
	var roots []int
	for _, sp := range spans {
		if sp.Parent < 0 {
			roots = append(roots, sp.ID)
		}
	}
	untraced := finiteSum(latencies(plain.samples, -1, func(s sample) float64 { return s.latency }))
	cov, over := reportCoverage(out, spans, roots, untraced)
	out.Set("trace.coverage", cov, "ratio")
	out.Set("trace.overhead_s", over, "s")
	return nil
}

// finiteSum sums xs, skipping the +Inf of dropped and failed requests.
func finiteSum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			t += x
		}
	}
	return t
}

// probeGap spaces the requests of a library workload's service probe.
const probeGap = 250 * time.Millisecond

// probeSession is the lamsd session of a library workload's traced pass:
// the workload's own mesh, resident, and each operation once over one
// connection, due probeGap apart and never dropped. The 3D mesh is
// generated server-side at the workload's size, since uploads take
// Triangle files only.
func probeSession(spec libSpec, in meshInput) (*session, error) {
	m := serviceMesh{Name: spec.name, Input: in, Dim: 2}
	if in.Dim == 3 {
		m = serviceMesh{Name: "cube", Dim: 3, Verts: tetVerts, Jitter: tetJitter}
	}
	s, err := newSession(spec.name+".lamsd", []serviceMesh{m}, 1)
	if err != nil {
		return nil, err
	}
	for i, op := range []opKind{opUpload, opGet, opExport, opReorder, opSmooth, opJob, opAnalyze, opDelete} {
		s.script = append(s.script, request{due: time.Duration(i) * probeGap, op: op, ordering: spec.ordering})
	}
	return s, nil
}

// poolCounts reads the engine pool's checkout counters from /healthz.
func poolCounts(svc *service) (hits, misses int64, err error) {
	st, body, err := svc.call("GET", "/healthz", "", nil)
	if err != nil {
		return 0, 0, err
	}
	var v struct {
		Pool lamsd.PoolStats `json:"pool"`
	}
	if st != http.StatusOK || json.Unmarshal(body, &v) != nil {
		return 0, 0, fmt.Errorf("healthz: status %d: %.200s", st, body)
	}
	return v.Pool.Hits, v.Pool.Misses, nil
}
