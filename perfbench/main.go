// Command perfbench is the repository's benchmark. Each invocation runs one
// closed-loop workload for a fixed time from a single process and prints, as
// the last line of standard output, one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Every op's
// amplitudes are checked against a reference computed at set-up by the
// other simulation method. Run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload qaoa-joint --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	qaoa-joint        hsfsim.Simulate with JointHSF over 12 Table I instances
//	qaoa-schrodinger  the same instances through the Schrodinger method
//	serve-mixed       HTTP requests to an in-process hsfsimd service
//	dist-loopback     dist.Coordinator.Run over a two-worker loopback fleet
//
// Results and, for traced runs, the recorded spans are also written under
// .bench_out/ in the working directory.
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
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"hsfsim"
	"hsfsim/internal/qasm"
	"hsfsim/internal/statevec"
)

// processStart anchors the first set-up repetition, so setup_s covers
// everything from process start to the first timed op.
var processStart = time.Now()

const (
	// setupReps is how many times a run builds its whole set-up; setup_s is
	// the median.
	setupReps = 3
	// tolerance is the max-abs amplitude difference an op may show against
	// its reference.
	tolerance = 1e-10
	outDir    = ".bench_out"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// instanceInfo is the header line for one input circuit, so a seed that
// changes the work is visible.
type instanceInfo struct {
	Name      string  `json:"name"`
	Seed      int64   `json:"instance_seed"`
	Qubits    int     `json:"qubits"`
	CutPos    int     `json:"cut_pos"`
	Log2Paths float64 `json:"log2_paths"`
}

type header struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	KernelISA  string         `json:"kernel_isa"`
	Instances  []instanceInfo `json:"instances"`
}

// phase is one timed closed-loop window.
type phase struct {
	attempted, failed int
	lat               []float64   // ms, one per completed op
	rounds            [][]float64 // round-robin workloads: lat split by round
	wall              time.Duration
}

// latency summarizes the window's op latencies, per round where it ran
// rounds.
func (p *phase) latency() summary {
	if len(p.rounds) > 0 {
		return summarizeRounds(p.rounds)
	}
	return summarize(p.lat)
}

func (p *phase) add(ms float64, ok bool) {
	p.attempted++
	if ok {
		p.lat = append(p.lat, ms)
	} else {
		p.failed++
	}
}

func (p *phase) merge(q phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.lat = append(p.lat, q.lat...)
	p.rounds = append(p.rounds, q.rounds...)
	p.wall += q.wall
}

// opRate is completed ops over the summed op latency: the throughput of the
// ops themselves, comparable between an untraced and a traced window.
func (p *phase) opRate() float64 {
	total := sum(p.lat)
	if total == 0 {
		return 0
	}
	return float64(len(p.lat)) / (total / 1e3)
}

// outcome is what a workload hands back to main.
type outcome struct {
	header header
	setup  []float64 // seconds per set-up repetition
	run    phase     // the untraced window
	layers map[string]float64
	notes  []string // human-readable lines printed before the result
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 0, "workload seed (0 reproduces the paper's instance seeds)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag))
	}
	if cfg.seconds <= 0 || cfg.seed < 0 {
		fail(fmt.Errorf("--seconds must be positive and --seed non-negative"))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fail(err)
	}

	var (
		out *outcome
		err error
	)
	switch cfg.workload {
	case "qaoa-joint":
		out, err = runQAOA(cfg, true)
	case "qaoa-schrodinger":
		out, err = runQAOA(cfg, false)
	case "serve-mixed":
		out, err = runServe(cfg)
	case "dist-loopback":
		out, err = runDist(cfg)
	default:
		err = fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if err != nil {
		fail(err)
	}
	report(cfg, out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// report prints the header, the sample counts behind every quantile, the
// notes, and the result line, and writes them under .bench_out/.
func report(cfg config, out *outcome) {
	out.header.Workload, out.header.Seed = cfg.workload, cfg.seed
	out.header.Seconds, out.header.Trace = cfg.seconds, cfg.trace
	out.header.Commit = commit()
	out.header.GoVersion = runtime.Version()
	out.header.GOMAXPROCS = runtime.GOMAXPROCS(0)
	out.header.NumCPU = runtime.NumCPU()
	out.header.KernelISA = statevec.KernelISA()

	lat := out.run.latency()
	metrics := endToEnd(out, lat)
	if cfg.trace {
		metrics = map[string]metric{}
		for _, name := range layerMetricNames {
			metrics[name.name] = metric{Value: out.layers[name.name], Unit: name.unit}
		}
	}
	hdr, _ := json.Marshal(out.header)
	fmt.Println("header", string(hdr))
	fmt.Printf("latency_ms %s beyond_p90=%d rounds=%d\n", lat, lat.beyondP90(out.run.lat), len(out.run.rounds))
	fmt.Printf("setup_s samples=%v\n", out.setup)
	for _, n := range out.notes {
		fmt.Println(n)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.run.failed == 0, out.run.attempted, out.run.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	file := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace)))
	saved, _ := json.MarshalIndent(struct {
		Header  header          `json:"header"`
		Latency summary         `json:"latency_ms"`
		Setup   []float64       `json:"setup_s"`
		Notes   []string        `json:"notes"`
		Result  json.RawMessage `json:"result"`
		Samples []float64       `json:"latency_samples_ms"`
	}{out.header, lat, out.setup, out.notes, line, out.run.lat}, "", "  ")
	if err := os.WriteFile(file, saved, 0o644); err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// spanFile is where a traced run writes its spans, beside its results.
func spanFile(cfg config) string {
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.json", cfg.workload, cfg.seed))
}

func endToEnd(out *outcome, lat summary) map[string]metric {
	r := &out.run
	verified := float64(r.attempted - r.failed)
	return map[string]metric{
		"setup_s":        {median(out.setup), "s"},
		"ops_per_s":      {verified / r.wall.Seconds(), "1/s"},
		"latency_p50_ms": {lat.P50, "ms"},
		"latency_p90_ms": {lat.P90, "ms"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
		"verified_ratio": {verified / float64(r.attempted), "ratio"},
	}
}

// layerMetricNames lists every per-layer metric in BENCHMARK.json order. A
// traced run reports all of them; a layer its workload does not reach reads 0.
var layerMetricNames = []struct{ name, unit string }{
	{"circuit.dag_ms", "ms"},
	{"cut.plan_ms", "ms"},
	{"cut.plan_share_pct", "%"},
	{"cut.log2_paths_mean", "count"},
	{"cut.blocks_mean", "count"},
	{"hsf.run_ms", "ms"},
	{"hsf.paths", "count"},
	{"hsf.us_per_path", "us"},
	{"hsf.parallel_efficiency", "ratio"},
	{"fuse.ms", "ms"},
	{"fuse.gates_in", "count"},
	{"fuse.gates_out", "count"},
	{"statevec.compile_ms", "ms"},
	{"statevec.sweep_ms", "ms"},
	{"statevec.steps", "count"},
	{"statevec.bytes_computed", "B"},
	{"statevec.gb_per_s_computed", "GB/s"},
	{"statevec.parallel_efficiency", "ratio"},
	{"server.simulate_p50_ms", "ms"},
	{"server.jobs_p50_ms", "ms"},
	{"server.overhead_p50_ms", "ms"},
	{"server.refused_ratio", "ratio"},
	{"jobs.queue_wait_p50_ms", "ms"},
	{"jobs.exec_p50_ms", "ms"},
	{"jobs.plan_hit_ratio", "ratio"},
	{"jobs.batched_ratio", "ratio"},
	{"dist.run_ms", "ms"},
	{"dist.leases_per_run", "count"},
	{"dist.lease_p50_ms", "ms"},
	{"dist.fleet_idle_pct", "%"},
	{"dist.steals_per_run", "count"},
	{"dist.reassignments_per_run", "count"},
	{"dist.speedup_vs_local", "ratio"},
	{"bench.trace_overhead_pct", "%"},
	{"hsfsim.sj_min", "ratio"},
	{"hsfsim.sj_median", "ratio"},
}

// traceSlices is how many untraced/traced window pairs a traced run
// alternates through, so drift over the run falls on both sides alike.
const traceSlices = 2

// minOps is the least number of ops an untraced run measures, running past
// --seconds if it must: with 12 instances per round, 120 ops put a whole
// instance, ten samples, beyond the p90.
const minOps = 120

// measure runs the timed windows. An untraced run is one window of
// cfg.seconds and at least minOps ops. A traced run spends a third of
// cfg.seconds untraced and a third traced, alternating, and leaves the rest
// for the one-core re-runs that follow; the untraced side gives
// bench.trace_overhead_pct its base.
func measure(cfg config, untraced func(d time.Duration, minOps int), traced func(d time.Duration)) {
	if !cfg.trace {
		untraced(seconds(cfg.seconds), minOps)
		return
	}
	slice := seconds(cfg.seconds / 3 / traceSlices)
	for i := 0; i < traceSlices; i++ {
		untraced(slice, 0)
		traced(slice)
	}
}

// timeSetup runs the whole set-up setupReps times and returns each
// repetition's seconds; the first is counted from process start.
func timeSetup(build func(rep int) error) ([]float64, error) {
	var secs []float64
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		if rep == 0 {
			start = processStart
		}
		if err := build(rep); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return secs, nil
}

// matches reports whether got equals the reference to tolerance.
func matches(got, want []complex128) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		d := got[i] - want[i]
		if math.Abs(real(d)) > tolerance || math.Abs(imag(d)) > tolerance {
			return false
		}
	}
	return true
}

// peakRSSMB is the process's peak resident set in MB (ru_maxrss is KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// commit reads the VCS revision the build stamped, if the sources came from
// a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sjNotes renders the paper-shape line: per-instance S/J (Schrödinger
// median over joint median) with its min and median. It is printed on every
// qaoa run and is not regression-gated, because a faster Schrödinger
// baseline would read as a loss.
func sjNotes(names []string, sj []float64) (lines []string, minSJ, medSJ float64) {
	var parts []string
	for i, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%.3f", n, sj[i]))
	}
	sorted := append([]float64(nil), sj...)
	sort.Float64s(sorted)
	minSJ, medSJ = sorted[0], quantile(sorted, 0.5)
	lines = append(lines,
		"paper-shape S/J per instance (not regression-gated): "+strings.Join(parts, " "),
		fmt.Sprintf("paper-shape hsfsim.sj_min=%.3f hsfsim.sj_median=%.3f (not regression-gated)", minSJ, medSJ))
	return lines, minSJ, medSJ
}

// describe plans a QASM input once for the run header.
func describe(name string, seed int64, qasmText string, cutPos int) (instanceInfo, error) {
	c, err := qasm.Parse(strings.NewReader(qasmText))
	if err != nil {
		return instanceInfo{}, err
	}
	plan, err := hsfsim.Analyze(c, cutPos, hsfsim.BlockCascade, 0)
	if err != nil {
		return instanceInfo{}, err
	}
	return instanceInfo{Name: name, Seed: seed, Qubits: c.NumQubits, CutPos: cutPos, Log2Paths: plan.Log2Paths}, nil
}

var errMismatch = errors.New("amplitudes differ from the reference")
