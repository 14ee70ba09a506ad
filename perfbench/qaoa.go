package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"hsfsim"
	"hsfsim/internal/circuit"
	"hsfsim/internal/cut"
	"hsfsim/internal/fuse"
	"hsfsim/internal/graph"
	"hsfsim/internal/hsf"
	"hsfsim/internal/par"
	"hsfsim/internal/qaoa"
	"hsfsim/internal/statevec"
)

// tableAmplitudes is the output size of every Table I op: the first 2^14
// amplitudes, as in the repository's laptop-scale Table I configuration.
const tableAmplitudes = 1 << 14

// tableSpecs returns the 12 scaled and medium Table I instances with at most
// 22 qubits (q16-1 … q22-3), at their seed-0 instance seeds.
func tableSpecs() []qaoa.InstanceSpec {
	return append(qaoa.ScaledInstances(), qaoa.MediumInstances()[:3]...)
}

// generate builds the instance a workload seed selects for spec. Seed 0 is
// spec's own instance. Any other seed relabels the vertices within each
// block by a permutation drawn from (instance seed, workload seed): a new
// graph, circuit and fingerprint with new amplitudes, but the same edge
// structure, so the same crossing gates, blocks and path count.
//
// Redrawing the graph from an offset instance seed would instead change the
// path count, which sets an op's work, by up to 4x between seeds, and
// rejection-sampling for an equal count costs seconds of set-up per run.
func generate(spec qaoa.InstanceSpec, seed int64) (*qaoa.Instance, error) {
	base, err := spec.Generate(qaoa.SingleLayer())
	if err != nil || seed == 0 {
		return base, err
	}
	rng := rand.New(rand.NewSource(spec.Seed*1_000_003 + seed))
	n := base.Graph.N
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng.Shuffle(spec.SizeA, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	rng.Shuffle(n-spec.SizeA, func(i, j int) {
		perm[spec.SizeA+i], perm[spec.SizeA+j] = perm[spec.SizeA+j], perm[spec.SizeA+i]
	})
	g := &graph.Graph{N: n}
	for _, e := range base.Graph.Edges {
		u, v := perm[e.U], perm[e.V]
		if u > v {
			u, v = v, u
		}
		g.Edges = append(g.Edges, graph.Edge{U: u, V: v, W: e.W})
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		return a.U < b.U || (a.U == b.U && a.V < b.V)
	})
	c, err := qaoa.Build(g, qaoa.SingleLayer())
	if err != nil {
		return nil, err
	}
	return &qaoa.Instance{Spec: spec, Graph: g, Circuit: c}, nil
}

// own copies amplitudes out of a result, so a kept reference does not pin
// the full state vector the result slice may alias.
func own(amps []complex128) []complex128 { return append([]complex128(nil), amps...) }

type qaoaInstance struct {
	spec  qaoa.InstanceSpec
	c     *circuit.Circuit
	ref   []complex128
	refMs []float64 // the reference method's op time, one per set-up repetition
	info  instanceInfo
}

// qaoaBench is one of the two Table I workloads: joint selects JointHSF as
// the measured method (Schrödinger is then the reference), otherwise the
// roles swap.
type qaoaBench struct {
	joint bool
	insts []*qaoaInstance
}

func (b *qaoaBench) method() hsfsim.Method {
	if b.joint {
		return hsfsim.JointHSF
	}
	return hsfsim.Schrodinger
}

func (b *qaoaBench) refMethod() hsfsim.Method {
	if b.joint {
		return hsfsim.Schrodinger
	}
	return hsfsim.JointHSF
}

func simulate(inst *qaoaInstance, m hsfsim.Method) (*hsfsim.Result, error) {
	return hsfsim.Simulate(inst.c, hsfsim.Options{
		Method:        m,
		CutPos:        inst.spec.CutPos(),
		MaxAmplitudes: tableAmplitudes,
	})
}

// setup generates the instances, computes every reference with the other
// method, and runs one warm-up op per instance.
func (b *qaoaBench) setup(seed int64, rep int) error {
	specs := tableSpecs()
	if rep == 0 {
		b.insts = make([]*qaoaInstance, len(specs))
	}
	for i, spec := range specs {
		gen, err := generate(spec, seed)
		if err != nil {
			return err
		}
		inst := b.insts[i]
		if inst == nil {
			inst = &qaoaInstance{}
			b.insts[i] = inst
		}
		inst.spec, inst.c = gen.Spec, gen.Circuit
		t0 := time.Now()
		ref, err := simulate(inst, b.refMethod())
		if err != nil {
			return fmt.Errorf("%s reference: %w", spec.Name, err)
		}
		inst.refMs = append(inst.refMs, msSince(t0))
		inst.ref = own(ref.Amplitudes)
		res, err := simulate(inst, b.method())
		if err != nil {
			return fmt.Errorf("%s warm-up: %w", spec.Name, err)
		}
		if !matches(res.Amplitudes, inst.ref) {
			return fmt.Errorf("%s warm-up: %w", spec.Name, errMismatch)
		}
		log2 := res.Log2Paths
		if !b.joint {
			log2 = ref.Log2Paths
		}
		inst.info = instanceInfo{Name: spec.Name, Seed: inst.spec.Seed, Qubits: spec.NumQubits(), CutPos: spec.CutPos(), Log2Paths: log2}
	}
	return nil
}

// rounds runs op round-robin over the instances until the deadline has
// passed and minOps ops have run, stopping at a round boundary so every
// instance contributes the same number of samples. perInst collects each
// instance's latencies.
func (b *qaoaBench) rounds(deadline time.Time, minOps int, op func(k int64, inst *qaoaInstance) bool) (phase, [][]float64) {
	var p phase
	perInst := make([][]float64, len(b.insts))
	start := time.Now()
	var k int64
	for time.Now().Before(deadline) || p.attempted < minOps {
		var round []float64
		for i, inst := range b.insts {
			k++
			t0 := time.Now()
			ok := op(k, inst)
			ms := msSince(t0)
			p.add(ms, ok)
			if ok {
				perInst[i] = append(perInst[i], ms)
				round = append(round, ms)
			}
		}
		p.rounds = append(p.rounds, round)
	}
	p.wall = time.Since(start)
	return p, perInst
}

func (b *qaoaBench) untracedOp(_ int64, inst *qaoaInstance) bool {
	res, err := simulate(inst, b.method())
	return err == nil && matches(res.Amplitudes, inst.ref)
}

func runQAOA(cfg config, joint bool) (*outcome, error) {
	b := &qaoaBench{joint: joint}
	out := &outcome{}
	var err error
	out.setup, err = timeSetup(func(rep int) error { return b.setup(cfg.seed, rep) })
	if err != nil {
		return nil, err
	}
	for _, inst := range b.insts {
		out.header.Instances = append(out.header.Instances, inst.info)
	}

	tr := newTracer()
	perInst := make([][]float64, len(b.insts))
	var traced phase
	var oneCore []func()
	measure(cfg, func(d time.Duration, minOps int) {
		p, lat := b.rounds(time.Now().Add(d), minOps, b.untracedOp)
		out.run.merge(p)
		for i := range lat {
			perInst[i] = append(perInst[i], lat[i]...)
		}
	}, func(d time.Duration) {
		p, _ := b.rounds(time.Now().Add(d), 0, func(k int64, inst *qaoaInstance) bool {
			ok, again := b.tracedOp(tr, k, inst)
			if again != nil {
				oneCore = append(oneCore, again)
			}
			return ok
		})
		traced.merge(p)
	})

	names := make([]string, len(b.insts))
	sj := make([]float64, len(b.insts))
	for i, inst := range b.insts {
		names[i] = inst.spec.Name
		measured, ref := median(perInst[i]), median(inst.refMs)
		if joint {
			sj[i] = ref / measured
		} else {
			sj[i] = measured / ref
		}
	}
	lines, minSJ, medSJ := sjNotes(names, sj)
	out.notes = append(out.notes, lines...)
	if !cfg.trace {
		return out, nil
	}

	// The one-core re-runs come after the traced windows, so their garbage
	// and cache effects do not land inside a timed op.
	release := par.Reserve(runtime.GOMAXPROCS(0) - 1)
	for _, again := range oneCore {
		again()
	}
	release()
	if err := tr.write(spanFile(cfg)); err != nil {
		return nil, err
	}
	// Failures in the traced windows count like any other.
	out.run.attempted += traced.attempted
	out.run.failed += traced.failed
	ls := tr.stats()
	out.layers = qaoaLayers(ls, float64(traced.attempted))
	out.layers["hsfsim.sj_min"], out.layers["hsfsim.sj_median"] = minSJ, medSJ
	out.layers["bench.trace_overhead_pct"] = overheadPct(out.run.opRate(), ls.durations("op"))
	return out, nil
}

func (b *qaoaBench) tracedOp(tr *tracer, k int64, inst *qaoaInstance) (bool, func()) {
	if b.joint {
		return b.tracedJointOp(tr, k, inst)
	}
	return b.tracedSchrodingerOp(tr, k, inst)
}

// tracedJointOp runs what hsfsim.Simulate does for JointHSF, one public
// layer call per span. The separate BuildDAG call is timed outside the op.
// It returns the op's engine call re-run on one path worker, for the
// parallel efficiency; the caller runs it with the other cores reserved.
func (b *qaoaBench) tracedJointOp(tr *tracer, k int64, inst *qaoaInstance) (bool, func()) {
	dag := tr.begin(k, 0, "circuit.BuildDAG")
	circuit.BuildDAG(inst.c)
	tr.end(dag, nil)

	root := tr.begin(k, 0, "op")
	defer tr.end(root, nil)
	ps := tr.begin(k, root.id(), "cut.BuildPlan")
	plan, err := cut.BuildPlan(inst.c, cut.Options{
		Partition: cut.Partition{CutPos: inst.spec.CutPos()},
		Strategy:  cut.StrategyCascade,
	})
	if err != nil {
		tr.end(ps, nil)
		return false, nil
	}
	tr.end(ps, map[string]float64{"log2_paths": plan.Log2Paths(), "blocks": float64(plan.NumBlocks())})
	hs := tr.begin(k, root.id(), "hsf.RunContext")
	res, err := hsf.RunContext(context.Background(), plan, hsf.Options{MaxAmplitudes: tableAmplitudes})
	if err != nil {
		tr.end(hs, nil)
		return false, nil
	}
	tr.end(hs, map[string]float64{"paths": float64(res.PathsSimulated)})
	return matches(res.Amplitudes, inst.ref), func() {
		s := tr.begin(k, 0, "hsf.RunContext/1core")
		_, _ = hsf.RunContext(context.Background(), plan, hsf.Options{MaxAmplitudes: tableAmplitudes, Workers: 1})
		tr.end(s, nil)
	}
}

// tracedSchrodingerOp runs what hsfsim.Simulate does for Schrodinger —
// fusion, segment compilation, then one ApplyStep span per sweep step. It
// returns the sweep re-run, for the parallel efficiency.
func (b *qaoaBench) tracedSchrodingerOp(tr *tracer, k int64, inst *qaoaInstance) (bool, func()) {
	n := inst.c.NumQubits
	root := tr.begin(k, 0, "op")
	fs := tr.begin(k, root.id(), "fuse.Fuse")
	gates := fuse.Fuse(inst.c.Gates, fuse.DefaultMaxQubits)
	tr.end(fs, map[string]float64{"gates_in": float64(len(inst.c.Gates)), "gates_out": float64(len(gates))})
	cs := tr.begin(k, root.id(), "statevec.CompileSegment")
	seg := statevec.CompileSegment(gates, n)
	tr.end(cs, nil)
	v := statevec.NewVector(n)
	for i := 0; i < seg.NumSteps(); i++ {
		st := tr.begin(k, root.id(), "statevec.ApplyStep")
		seg.ApplyStep(v, i)
		tr.end(st, map[string]float64{"bytes": float64(int64(32) << n)})
	}
	amps := []complex128(v.ToComplex())[:tableAmplitudes]
	tr.end(root, nil)
	return matches(amps, inst.ref), func() {
		s := tr.begin(k, 0, "statevec.sweep/1core")
		seg.Apply(statevec.NewVector(n))
		tr.end(s, nil)
	}
}

// qaoaLayers derives the circuit, cut, hsf, fuse and statevec metrics from
// the traced window's spans; ops is the number of ops it ran.
func qaoaLayers(ls *layerStats, ops float64) map[string]float64 {
	m := map[string]float64{}
	per := func(v float64) float64 { return v / ops }
	nproc := float64(runtime.GOMAXPROCS(0))
	opMs := sum(ls.durations("op"))

	m["circuit.dag_ms"] = per(ls.selfSum("circuit.BuildDAG"))
	plan := ls.selfSum("cut.BuildPlan")
	m["cut.plan_ms"] = per(plan)
	if opMs > 0 {
		m["cut.plan_share_pct"] = 100 * plan / opMs
	}
	if n := float64(len(ls.named("cut.BuildPlan"))); n > 0 {
		m["cut.log2_paths_mean"] = ls.countSum("cut.BuildPlan", "log2_paths") / n
		m["cut.blocks_mean"] = ls.countSum("cut.BuildPlan", "blocks") / n
	}
	run, paths := ls.selfSum("hsf.RunContext"), ls.countSum("hsf.RunContext", "paths")
	m["hsf.run_ms"] = per(run)
	m["hsf.paths"] = per(paths)
	if paths > 0 {
		m["hsf.us_per_path"] = run * 1e3 / paths
		m["hsf.parallel_efficiency"] = ls.selfSum("hsf.RunContext/1core") / (nproc * run)
	}

	m["fuse.ms"] = per(ls.selfSum("fuse.Fuse"))
	m["fuse.gates_in"] = per(ls.countSum("fuse.Fuse", "gates_in"))
	m["fuse.gates_out"] = per(ls.countSum("fuse.Fuse", "gates_out"))
	m["statevec.compile_ms"] = per(ls.selfSum("statevec.CompileSegment"))
	sweep, bytes := ls.selfSum("statevec.ApplyStep"), ls.countSum("statevec.ApplyStep", "bytes")
	m["statevec.sweep_ms"] = per(sweep)
	m["statevec.steps"] = per(float64(len(ls.named("statevec.ApplyStep"))))
	m["statevec.bytes_computed"] = per(bytes)
	if sweep > 0 {
		m["statevec.gb_per_s_computed"] = bytes / 1e9 / (sweep / 1e3)
		m["statevec.parallel_efficiency"] = ls.selfSum("statevec.sweep/1core") / (nproc * sweep)
	}
	return m
}

// overheadPct compares the untraced window's op throughput with the traced
// window's, from the traced op spans' durations.
func overheadPct(untracedRate float64, tracedOpMs []float64) float64 {
	tracedRate := (&phase{lat: tracedOpMs}).opRate()
	if tracedRate == 0 || untracedRate == 0 {
		return 0
	}
	return 100 * (untracedRate/tracedRate - 1)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
