package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hsfsim"
	"hsfsim/internal/graph"
	"hsfsim/internal/jobs"
	"hsfsim/internal/qaoa"
	"hsfsim/internal/qasm"
	"hsfsim/internal/server"
)

// serveAmplitudes is the output size of one serve-mixed request.
const serveAmplitudes = 256

// serveSpecs returns the four hot circuits (q18–q20 Table I instances) and
// the bases of the cold ones: the same structures with instance seeds the
// hot set never uses.
func serveSpecs() (hot, cold []qaoa.InstanceSpec) {
	scaled := qaoa.ScaledInstances()
	for _, i := range []int{3, 4, 6, 7} { // q18-1, q18-2, q20-1, q20-2
		hot = append(hot, scaled[i])
	}
	for k, i := range []int{3, 4, 5, 6, 7, 8, 3, 6} {
		s := scaled[i]
		s.Name = fmt.Sprintf("cold%d-%s", k, s.Name)
		s.Seed += 7919 * int64(k+1)
		cold = append(cold, s)
	}
	return hot, cold
}

type serveCircuit struct {
	name   string
	seed   int64 // instance seed
	graph  *graph.Graph
	qasm   string
	cutPos int
	ref    []complex128
}

type serveBench struct {
	seed  int64
	hot   []*serveCircuit
	cold  []*serveCircuit
	nextC atomic.Int64 // cold requests issued so far

	svc    *server.Service
	srv    *http.Server
	done   chan struct{} // closed when srv.Serve returns
	base   string
	client *http.Client
}

// newCircuit renders g's single-layer QAOA circuit as QASM and computes its
// Schrödinger reference from the parsed text, exactly what the service sees.
func newCircuit(name string, seed int64, g *graph.Graph, cutPos int) (*serveCircuit, error) {
	c, err := qaoa.Build(g, qaoa.SingleLayer())
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	if err := qasm.Write(&sb, c); err != nil {
		return nil, err
	}
	parsed, err := qasm.Parse(strings.NewReader(sb.String()))
	if err != nil {
		return nil, err
	}
	ref, err := hsfsim.Simulate(parsed, hsfsim.Options{Method: hsfsim.Schrodinger, MaxAmplitudes: serveAmplitudes})
	if err != nil {
		return nil, fmt.Errorf("%s reference: %w", name, err)
	}
	return &serveCircuit{name: name, seed: seed, graph: g, qasm: sb.String(), cutPos: cutPos, ref: own(ref.Amplitudes)}, nil
}

// coldRequest returns the k-th cold circuit: a cold base with its RZZ gates
// in a fresh seeded order. The gates commute, so the amplitudes are the
// base's, but the fingerprint is new and the service must plan it again.
func (b *serveBench) coldRequest(k int64) (qasmText string, cutPos int, ref []complex128, err error) {
	base := b.cold[k%int64(len(b.cold))]
	rng := rand.New(rand.NewSource(b.seed*1_000_003 + k))
	edges := append([]graph.Edge(nil), base.graph.Edges...)
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	c, err := qaoa.Build(&graph.Graph{N: base.graph.N, Edges: edges}, qaoa.SingleLayer())
	if err != nil {
		return "", 0, nil, err
	}
	var sb strings.Builder
	if err := qasm.Write(&sb, c); err != nil {
		return "", 0, nil, err
	}
	return sb.String(), base.cutPos, base.ref, nil
}

func (b *serveBench) setup(rep int) error {
	if rep > 0 {
		b.stop()
	}
	hotSpecs, coldSpecs := serveSpecs()
	b.hot, b.cold = nil, nil
	for i, spec := range append(hotSpecs, coldSpecs...) {
		gen, err := generate(spec, b.seed)
		if err != nil {
			return err
		}
		sc, err := newCircuit(spec.Name, gen.Spec.Seed, gen.Graph, spec.CutPos())
		if err != nil {
			return err
		}
		if i < len(hotSpecs) {
			b.hot = append(b.hot, sc)
		} else {
			b.cold = append(b.cold, sc)
		}
	}

	nproc := runtime.GOMAXPROCS(0)
	b.svc = server.NewService(server.Config{
		MaxConcurrent: nproc,
		JobRunners:    1,
		Logger:        log.New(io.Discard, "", 0),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv = &http.Server{Handler: b.svc.Handler()}
	b.done = make(chan struct{})
	go func() {
		defer close(b.done)
		_ = b.srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	b.base = "http://" + ln.Addr().String()
	b.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nproc,
		MaxIdleConnsPerHost: nproc,
	}}

	// Warm-up: every hot circuit and one cold circuit through both routes.
	for i := 0; i < 2*len(b.hot)+2; i++ {
		if r, _ := b.op(nil, 0, i%2 == 1, i/2 < len(b.hot), i/2); !r.ok {
			return fmt.Errorf("warm-up request %d failed: %v", i, r.err)
		}
	}
	return nil
}

func (b *serveBench) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx) // best effort; Serve's exit is awaited below
	<-b.done
	_ = b.svc.CloseJobs(ctx)
	b.client.CloseIdleConnections()
}

// opResult describes one completed request flow.
type opResult struct {
	ok, refused bool
	err         error
	isJob       bool
	snap        jobs.Snapshot // terminal snapshot, jobs only
}

// op runs one request flow: POST /simulate, or POST /jobs, wait on the
// job's event stream, and GET its result. Its amplitudes are checked
// against the reference.
func (b *serveBench) op(tr *tracer, k int64, isJob, hot bool, hotIdx int) (opResult, time.Duration) {
	var qasmText string
	var cutPos int
	var ref []complex128
	if hot {
		h := b.hot[hotIdx%len(b.hot)]
		qasmText, cutPos, ref = h.qasm, h.cutPos, h.ref
	} else {
		var err error
		qasmText, cutPos, ref, err = b.coldRequest(b.nextC.Add(1))
		if err != nil {
			return opResult{err: err}, 0
		}
	}
	body, err := json.Marshal(server.SimulateRequest{
		QASM: qasmText, Method: "joint", CutPos: &cutPos, MaxAmplitudes: serveAmplitudes,
	})
	if err != nil {
		return opResult{err: err}, 0
	}
	start := time.Now()
	root := tr.begin(k, 0, "op")
	var r opResult
	if isJob {
		r = b.jobFlow(tr, k, root.id(), body, ref)
	} else {
		r = b.simulateFlow(tr, k, root.id(), body, ref)
	}
	r.isJob = isJob
	tr.end(root, map[string]float64{"job": float64(boolInt(isJob)), "hot": float64(boolInt(hot))})
	return r, time.Since(start)
}

// call sends one request inside a span named after its route and decodes a
// 2xx JSON reply into v.
func (b *serveBench) call(tr *tracer, k, parent int64, route, method, path string, body []byte, v any) (refused bool, err error) {
	s := tr.begin(k, parent, "server."+route)
	defer tr.end(s, nil)
	req, err := http.NewRequest(method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		_, _ = io.Copy(io.Discard, resp.Body)
		return true, fmt.Errorf("%s: refused with %d", path, resp.StatusCode)
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(resp.Body)
		return false, fmt.Errorf("%s: %d %s", path, resp.StatusCode, msg)
	}
	return false, json.NewDecoder(resp.Body).Decode(v)
}

func (b *serveBench) simulateFlow(tr *tracer, k, parent int64, body []byte, ref []complex128) opResult {
	var resp server.SimulateResponse
	refused, err := b.call(tr, k, parent, "POST /simulate", http.MethodPost, "/simulate", body, &resp)
	if err != nil {
		return opResult{refused: refused, err: err}
	}
	return checked(resp.Amplitudes, ref)
}

// checked compares a reply's amplitudes with the reference.
func checked(got []server.Amplitude, ref []complex128) opResult {
	if !matches(amplitudes(got), ref) {
		return opResult{err: errMismatch}
	}
	return opResult{ok: true}
}

func (b *serveBench) jobFlow(tr *tracer, k, parent int64, body []byte, ref []complex128) opResult {
	var snap jobs.Snapshot
	refused, err := b.call(tr, k, parent, "POST /jobs", http.MethodPost, "/jobs", body, &snap)
	if err != nil {
		return opResult{refused: refused, err: err}
	}
	final, err := b.awaitJob(tr, k, parent, snap.ID)
	if err != nil {
		return opResult{err: err}
	}
	// The job's own timeline, as its snapshot reports it.
	tr.record(k, parent, "jobs.queued", final.Created, final.Started)
	tr.record(k, parent, "jobs.running", final.Started, final.Finished)
	if final.State != jobs.StateDone {
		return opResult{err: fmt.Errorf("job %s ended %s: %s", snap.ID, final.State, final.Error)}
	}
	var resp server.SimulateResponse
	refused, err = b.call(tr, k, parent, "GET /jobs/{id}/result", http.MethodGet, "/jobs/"+snap.ID+"/result", nil, &resp)
	if err != nil {
		return opResult{refused: refused, err: err}
	}
	r := checked(resp.Amplitudes, ref)
	r.snap = final
	return r
}

// awaitJob reads the job's SSE stream until its terminal event and returns
// the terminal snapshot.
func (b *serveBench) awaitJob(tr *tracer, k, parent int64, id string) (jobs.Snapshot, error) {
	s := tr.begin(k, parent, "server.GET /jobs/{id}/events")
	defer tr.end(s, nil)
	resp, err := b.client.Get(b.base + "/jobs/" + id + "/events")
	if err != nil {
		return jobs.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobs.Snapshot{}, fmt.Errorf("events for %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && (event == "done" || event == "failed" || event == "cancelled"):
			var snap jobs.Snapshot
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
				return snap, err
			}
			return snap, nil
		}
	}
	if err := sc.Err(); err != nil {
		return jobs.Snapshot{}, err
	}
	return jobs.Snapshot{}, fmt.Errorf("events for %s: stream ended without a terminal event", id)
}

func amplitudes(as []server.Amplitude) []complex128 {
	out := make([]complex128, len(as))
	for i, a := range as {
		out[i] = complex(a.Re, a.Im)
	}
	return out
}

// serveSample is one completed flow as the closed loop saw it.
type serveSample struct {
	ms  float64
	res opResult
}

// closedLoop runs nproc clients until the deadline has passed and minOps
// ops have started. Client c's i-th request is a job when i is odd and hot
// when i/2 is even, so the four kinds alternate evenly.
func (b *serveBench) closedLoop(tr *tracer, deadline time.Time, minOps int) (phase, []serveSample) {
	nproc := runtime.GOMAXPROCS(0)
	var mu sync.Mutex
	var p phase
	var samples []serveSample
	var opID atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline) || opID.Load() < int64(minOps); i++ {
				r, d := b.op(tr, opID.Add(1), i%2 == 1, (i/2)%2 == 0, i/4+c)
				ms := float64(d) / 1e6
				mu.Lock()
				p.add(ms, r.ok)
				samples = append(samples, serveSample{ms, r})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p, samples
}

func runServe(cfg config) (*outcome, error) {
	b := &serveBench{seed: cfg.seed}
	out := &outcome{}
	var err error
	out.setup, err = timeSetup(b.setup)
	if err != nil {
		return nil, err
	}
	defer b.stop()
	for _, sc := range append(append([]*serveCircuit(nil), b.hot...), b.cold...) {
		info, err := describe(sc.name, sc.seed, sc.qasm, sc.cutPos)
		if err != nil {
			return nil, err
		}
		out.header.Instances = append(out.header.Instances, info)
	}

	tr := newTracer()
	var traced phase
	var samples []serveSample
	var counts jobCounts
	measure(cfg, func(d time.Duration, minOps int) {
		p, _ := b.closedLoop(nil, time.Now().Add(d), minOps)
		out.run.merge(p)
	}, func(d time.Duration) {
		before := b.statsSpan(tr)
		p, got := b.closedLoop(tr, time.Now().Add(d), 0)
		counts.add(before, b.statsSpan(tr))
		traced.merge(p)
		samples = append(samples, got...)
	})
	out.notes = append(out.notes, "paper-shape S/J: not measured on serve-mixed")
	if !cfg.trace {
		return out, nil
	}
	if err := tr.write(spanFile(cfg)); err != nil {
		return nil, err
	}
	out.run.attempted += traced.attempted
	out.run.failed += traced.failed
	out.layers = serveLayers(samples, counts)
	out.layers["bench.trace_overhead_pct"] = overheadPct(out.run.opRate(), tr.stats().durations("op"))
	return out, nil
}

// jobCounts accumulates the jobs.Manager counters over the traced windows.
type jobCounts struct{ hits, misses, completed, batched int64 }

func (c *jobCounts) add(before, after jobs.StatsSnapshot) {
	c.hits += after.PlanHits - before.PlanHits
	c.misses += after.PlanMisses - before.PlanMisses
	c.completed += after.Completed - before.Completed
	c.batched += after.BatchedJobs - before.BatchedJobs
}

// statsSpan reads jobs.Manager.Stats inside a span.
func (b *serveBench) statsSpan(tr *tracer) jobs.StatsSnapshot {
	s := tr.begin(0, 0, "jobs.Manager.Stats")
	defer tr.end(s, nil)
	return b.svc.Jobs().Stats()
}

func serveLayers(samples []serveSample, counts jobCounts) map[string]float64 {
	m := map[string]float64{}
	var simMs, jobMs, overhead, queue, exec []float64
	refused := 0
	for _, s := range samples {
		if s.res.refused {
			refused++
		}
		if !s.res.ok {
			continue
		}
		if !s.res.isJob {
			simMs = append(simMs, s.ms)
			continue
		}
		snap := s.res.snap
		jobMs = append(jobMs, s.ms)
		overhead = append(overhead, s.ms-float64(snap.Finished.Sub(snap.Created))/1e6)
		queue = append(queue, float64(snap.Started.Sub(snap.Created))/1e6)
		exec = append(exec, float64(snap.Finished.Sub(snap.Started))/1e6)
	}
	m["server.simulate_p50_ms"] = median(simMs)
	m["server.jobs_p50_ms"] = median(jobMs)
	m["server.overhead_p50_ms"] = median(overhead)
	if len(samples) > 0 {
		m["server.refused_ratio"] = float64(refused) / float64(len(samples))
	}
	m["jobs.queue_wait_p50_ms"] = median(queue)
	m["jobs.exec_p50_ms"] = median(exec)
	if lookups := counts.hits + counts.misses; lookups > 0 {
		m["jobs.plan_hit_ratio"] = float64(counts.hits) / float64(lookups)
	}
	if counts.completed > 0 {
		m["jobs.batched_ratio"] = float64(counts.batched) / float64(counts.completed)
	}
	return m
}
