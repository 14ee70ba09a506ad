package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"strings"
	"sync/atomic"
	"time"

	"hsfsim"
	"hsfsim/internal/dist"
	"hsfsim/internal/hsf"
	"hsfsim/internal/qaoa"
	"hsfsim/internal/qasm"
)

// distWorkers is the loopback fleet size; each worker runs its leases on one
// path worker.
const distWorkers = 2

// distSpecs are the dist-loopback instances: 2^9 to 2^10 paths each.
func distSpecs() []qaoa.InstanceSpec {
	all := tableSpecs()
	return []qaoa.InstanceSpec{all[4], all[5], all[10], all[11]} // q18-2, q18-3, q22-2, q22-3
}

type distInstance struct {
	name string
	seed int64 // instance seed
	job  *dist.Job
	ref  []complex128
}

// tracedTransport wraps the fleet's transport so every lease is a span under
// the Coordinator.Run span of the op in flight (ops run one at a time).
type tracedTransport struct {
	inner  dist.Transport
	tr     *tracer
	op     atomic.Int64
	parent atomic.Int64
}

func (t *tracedTransport) Run(ctx context.Context, addr string, req *dist.RunRequest) (*hsf.Checkpoint, error) {
	s := t.tr.begin(t.op.Load(), t.parent.Load(), "dist.Transport.Run")
	ck, err := t.inner.Run(ctx, addr, req)
	t.tr.end(s, map[string]float64{"prefixes": float64(len(req.Prefixes))})
	return ck, err
}

type distBench struct {
	insts []*distInstance
	coord *dist.Coordinator // the untraced fleet
}

// newFleet builds a coordinator over a fresh two-worker loopback fleet.
func newFleet(transport func(*dist.Loopback) dist.Transport) (*dist.Coordinator, error) {
	lb := dist.NewLoopback()
	coord, err := dist.New(dist.Config{Transport: transport(lb), Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		return nil, err
	}
	for w := 0; w < distWorkers; w++ {
		name := fmt.Sprintf("w%d", w)
		lb.AddWorker(name, dist.ExecOptions{Workers: 1})
		coord.AddWorker(name)
	}
	return coord, nil
}

func (b *distBench) setup(seed int64) error {
	b.insts = nil
	for _, spec := range distSpecs() {
		gen, err := generate(spec, seed)
		if err != nil {
			return err
		}
		var sb strings.Builder
		if err := qasm.Write(&sb, gen.Circuit); err != nil {
			return err
		}
		parsed, err := qasm.Parse(strings.NewReader(sb.String()))
		if err != nil {
			return err
		}
		ref, err := hsfsim.Simulate(parsed, hsfsim.Options{Method: hsfsim.Schrodinger, MaxAmplitudes: tableAmplitudes})
		if err != nil {
			return fmt.Errorf("%s reference: %w", spec.Name, err)
		}
		b.insts = append(b.insts, &distInstance{
			name: spec.Name,
			seed: gen.Spec.Seed,
			job:  &dist.Job{QASM: sb.String(), Method: "joint", CutPos: spec.CutPos(), MaxAmplitudes: tableAmplitudes},
			ref:  own(ref.Amplitudes),
		})
	}
	var err error
	b.coord, err = newFleet(func(lb *dist.Loopback) dist.Transport { return lb })
	if err != nil {
		return err
	}
	for _, inst := range b.insts {
		res, err := b.coord.Run(context.Background(), inst.job, dist.RunOptions{})
		if err != nil {
			return fmt.Errorf("%s warm-up: %w", inst.name, err)
		}
		if !matches(res.Amplitudes, inst.ref) {
			return fmt.Errorf("%s warm-up: %w", inst.name, errMismatch)
		}
	}
	return nil
}

// rounds runs one coord.Run per instance, round-robin, until the deadline
// has passed and minOps ops have run, stopping at a round boundary. tt is
// the traced fleet's transport, nil for an untraced window; a traced window
// also returns, per op, the same plan run in process with as many path
// workers as the fleet has, for dist.speedup_vs_local.
func (b *distBench) rounds(coord *dist.Coordinator, tt *tracedTransport, deadline time.Time, minOps int) (phase, []*dist.Result, []func()) {
	var tr *tracer
	if tt != nil {
		tr = tt.tr
	}
	var p phase
	var results []*dist.Result
	var local []func()
	start := time.Now()
	var k int64
	for time.Now().Before(deadline) || p.attempted < minOps {
		var round []float64
		for _, inst := range b.insts {
			k++
			t0 := time.Now()
			root := tr.begin(k, 0, "dist.Coordinator.Run")
			if tt != nil {
				tt.op.Store(k)
				tt.parent.Store(root.id())
			}
			res, err := coord.Run(context.Background(), inst.job, dist.RunOptions{})
			tr.end(root, nil)
			ms := msSince(t0)
			ok := err == nil && matches(res.Amplitudes, inst.ref)
			p.add(ms, ok)
			if ok {
				round = append(round, ms)
			}
			if err == nil {
				results = append(results, res)
			}
			if tr != nil {
				k := k
				local = append(local, func() {
					plan, err := inst.job.BuildPlan()
					if err != nil {
						return
					}
					s := tr.begin(k, 0, "hsf.RunContext/local")
					_, _ = hsf.RunContext(context.Background(), plan, hsf.Options{MaxAmplitudes: tableAmplitudes, Workers: distWorkers})
					tr.end(s, nil)
				})
			}
		}
		p.rounds = append(p.rounds, round)
	}
	p.wall = time.Since(start)
	return p, results, local
}

func runDist(cfg config) (*outcome, error) {
	b := &distBench{}
	out := &outcome{}
	var err error
	out.setup, err = timeSetup(func(int) error { return b.setup(cfg.seed) })
	if err != nil {
		return nil, err
	}
	for _, inst := range b.insts {
		info, err := describe(inst.name, inst.seed, inst.job.QASM, inst.job.CutPos)
		if err != nil {
			return nil, err
		}
		out.header.Instances = append(out.header.Instances, info)
	}

	tr := newTracer()
	tt := &tracedTransport{tr: tr}
	var tracedCoord *dist.Coordinator
	if cfg.trace {
		tracedCoord, err = newFleet(func(lb *dist.Loopback) dist.Transport { tt.inner = lb; return tt })
		if err != nil {
			return nil, err
		}
	}
	var traced phase
	var results []*dist.Result
	var local []func()
	measure(cfg, func(d time.Duration, minOps int) {
		p, _, _ := b.rounds(b.coord, nil, time.Now().Add(d), minOps)
		out.run.merge(p)
	}, func(d time.Duration) {
		p, res, again := b.rounds(tracedCoord, tt, time.Now().Add(d), 0)
		traced.merge(p)
		results = append(results, res...)
		local = append(local, again...)
	})
	out.notes = append(out.notes, "paper-shape S/J: not measured on dist-loopback")
	if !cfg.trace {
		return out, nil
	}
	for _, again := range local {
		again()
	}
	if err := tr.write(spanFile(cfg)); err != nil {
		return nil, err
	}
	out.run.attempted += traced.attempted
	out.run.failed += traced.failed

	ls := tr.stats()
	m := map[string]float64{}
	runs := float64(traced.attempted)
	runMs := sum(ls.durations("dist.Coordinator.Run"))
	leaseMs := ls.durations("dist.Transport.Run")
	m["dist.run_ms"] = runMs / runs
	m["dist.lease_p50_ms"] = median(leaseMs)
	m["dist.fleet_idle_pct"] = 100 * (1 - sum(leaseMs)/(distWorkers*runMs))
	var leases, steals, reassign int64
	for _, r := range results {
		leases += int64(r.Batches)
		steals += r.Steals
		reassign += r.Reassignments
	}
	m["dist.leases_per_run"] = float64(leases) / runs
	m["dist.steals_per_run"] = float64(steals) / runs
	m["dist.reassignments_per_run"] = float64(reassign) / runs
	if local := sum(ls.durations("hsf.RunContext/local")); runMs > 0 {
		m["dist.speedup_vs_local"] = local / runMs
	}
	m["bench.trace_overhead_pct"] = overheadPct(out.run.opRate(), ls.durations("dist.Coordinator.Run"))
	out.layers = m
	return out, nil
}
