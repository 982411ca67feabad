// Command perfbench is the repository's end-to-end benchmark: three
// workloads (CMA2C training, a full-scale SD2 evaluation, and a full-scale
// FairMove day served over loopback HTTP), end-to-end metrics measured with
// tracing off, a traced run for the per-layer breakdown, and correctness
// oracles that fail the run. See README.md in this directory.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//	perfbench compare OLD.json NEW.json
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the full stamped record
// (host fingerprint, commit, seed, every metric, oracle outcomes) is written
// to .bench_build/perfbench/results/.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// outDir holds everything a run writes (policy files, records, spans).
const outDir = ".bench_build/perfbench"

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload reports with tracing
// off. BENCHMARK.json lists the same names (a unit test checks it).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"slots_per_s", "1/s"},
	{"decision_p50_ms", "ms"},
	{"decision_p90_ms", "ms"},
}

// perLayer lists the per-layer metrics of a traced run. Every workload
// reports all of them; a layer the workload never enters reads 0.
var perLayer = []metricDef{
	{"nn.cpu_frac", "frac"},
	{"nn.gemm.cpu_frac", "frac"},
	{"nn.tanh.cpu_frac", "frac"},
	{"nn.adam.cpu_frac", "frac"},
	{"nn.forward_batch.cpu_frac", "frac"},
	{"core.train_s", "s"},
	{"core.episode_ms", "ms"},
	{"core.pretrain_s", "s"},
	{"core.actor_steps", "count"},
	{"core.critic_steps", "count"},
	{"core.clone_steps", "count"},
	{"core.transitions", "count"},
	{"core.transitions_per_s", "1/s"},
	{"policy.decide_ms", "ms"},
	{"policy.decide_self_ms", "ms"},
	{"sim.observe_us", "us"},
	{"sim.observe_calls", "count"},
	{"demand.cpu_frac", "frac"},
	{"sim.step_ms", "ms"},
	{"shard.phase.begin_slot_apply_ms", "ms"},
	{"shard.phase.route_migrants_ms", "ms"},
	{"shard.phase.generate_and_match_ms", "ms"},
	{"shard.phase.run_minute_ms", "ms"},
	{"shard.phase.end_slot_ms", "ms"},
	{"shard.barrier_ms", "ms"},
	{"geo.cpu_frac", "frac"},
	{"sim.match_ratio", "frac"},
	{"sim.abandonments", "count"},
	{"sim.invalid_actions", "count"},
	{"serve.ingest_rtt_us", "us"},
	{"serve.ingest_p50_ms", "ms"},
	{"serve.ingest_p99_ms", "ms"},
	{"serve.capacity_eps", "1/s"},
	{"serve.gen_late_p99_ms", "ms"},
	{"serve.parse.cpu_frac", "frac"},
	{"serve.slot_wait_ms", "ms"},
	{"serve.queue_depth_max", "count"},
	{"serve.rejected_batches", "count"},
	{"serve.first_slot_ms", "ms"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"trace.overhead_frac", "frac"},
	{"trace.span_coverage", "frac"},
	{"trace.spans", "count"},
}

// instruments is what a traced pass hands a workload; nil for untraced.
type instruments struct {
	tr   *tracer
	reg  *telemetry.Registry
	root int // the measured pass's root span
}

// measurement is one pass's outcome.
type measurement struct {
	slotsPerSec float64
	decisionsMs []float64 // per-slot decision latency samples
	attempted   int
	failed      int
	allocOps    float64 // ops runtime.alloc_bytes_per_op divides by
	probe       *probe
	layers      map[string]float64 // workload-specific per-layer values
	coverage    float64            // <0: use the root span's child coverage
}

// bench is one workload after set-up.
type bench interface {
	// measure runs the timed work for about seconds; ins is nil untraced.
	measure(seconds int, ins *instruments) (*measurement, error)
	// verify runs the workload's correctness oracles, untimed.
	verify() error
}

// workload describes one benchmark workload.
type workload struct {
	setups int // set-ups per run; setup_s is their median
	setup  func(seed int64, seconds int) (bench, error)
}

var workloads = map[string]workload{
	"train-cma2c":         {setups: 9, setup: setupTrain},
	"eval-full-sd2":       {setups: 9, setup: setupEval},
	"serve-full-fairmove": {setups: 3, setup: setupServe},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: train-cma2c, eval-full-sd2, serve-full-fairmove")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "how long one measured pass runs")
	trace := flag.Int("trace", 0, "1: also run a traced pass and report the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*name, w, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, w workload, seed int64, seconds int, traced bool) error {
	for _, d := range []string{"results", "spans", "policies"} {
		if err := os.MkdirAll(filepath.Join(outDir, d), 0o755); err != nil {
			return err
		}
	}
	st, err := newStamp(name, seed, seconds, traced)
	if err != nil {
		return err
	}

	var b bench
	setupS := make([]float64, 0, w.setups)
	for i := 0; i < w.setups; i++ {
		b = nil
		runtime.GC()
		t := time.Now()
		if b, err = w.setup(seed, seconds); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: set-up %.3fs (median of %d)\n", name, seed, median(append([]float64(nil), setupS...)), len(setupS))

	runtime.GC()
	m, err := b.measure(seconds, nil)
	if err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	// Peak RSS of set-up plus the measured pass; the oracles' own memory
	// (reference runs, batch replays) is not the workload's.
	e2e, err := endToEndMetrics(m, setupS, peakRSSMB())
	if err != nil {
		return err
	}

	res := result{Correct: true, Attempted: m.attempted, Failed: m.failed, Metrics: e2e}
	rec := record{Stamp: st, EndToEnd: e2e, DecisionTail: decisionTail(m.decisionsMs)}
	if traced {
		layers, tr, err := tracedPass(name, seed, seconds, b, m)
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		res.Metrics = layers
		rec.PerLayer, rec.Trace = layers, tr
	}

	// The oracles run after every timed pass, untimed; a failure fails the run.
	if err := b.verify(); err != nil {
		res.Correct = false
		rec.Oracle = err.Error()
		fmt.Fprintln(os.Stderr, "perfbench: oracle failed:", err)
	} else {
		rec.Oracle = "ok"
	}
	rec.Result = res
	if err := rec.write(); err != nil {
		return err
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", d.name, v.Value, d.unit)
		}
	}
	stampLine, err := json.Marshal(st)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("# %s\n%s\n", stampLine, out)
	if !res.Correct {
		return errors.New("correctness oracle failed")
	}
	return nil
}

// endToEndMetrics derives the end-to-end metrics of an untraced pass.
func endToEndMetrics(m *measurement, setupS []float64, rssMB float64) (map[string]metricValue, error) {
	p50, err := quantile(m.decisionsMs, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := quantile(m.decisionsMs, 0.9)
	if err != nil {
		return nil, err
	}
	return withUnits(endToEnd, map[string]float64{
		"setup_s":         median(setupS),
		"peak_rss_mb":     rssMB,
		"slots_per_s":     m.slotsPerSec,
		"decision_p50_ms": p50,
		"decision_p90_ms": p90,
	}), nil
}

// withUnits reports every metric of defs, reading 0 where v has no value.
func withUnits(defs []metricDef, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{v[d.name], d.unit}
	}
	return out
}

// decisionTail is the decision latency at the highest percentile that keeps
// ten samples beyond it, with the sample count.
func decisionTail(samples []float64) latencyTail {
	t := latencyTail{Samples: len(samples)}
	if q, ok := tailQuantile(len(samples)); ok {
		t.Quantile = q
		t.Ms, _ = quantile(append([]float64(nil), samples...), q)
	}
	return t
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// tracedPass runs the workload again with spans, the telemetry registry and
// a CPU profile on, and derives the per-layer metrics. untraced is the
// untraced pass just measured: the tracing overhead is the difference.
func tracedPass(name string, seed int64, seconds int, b bench, untraced *measurement) (map[string]metricValue, *traceRecord, error) {
	ins := &instruments{tr: newTracer(), reg: telemetry.NewRegistry()}
	ins.root = ins.tr.begin("measure", -1, -1)
	var prof bytes.Buffer
	runtime.GC()
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	m, err := b.measure(seconds, ins)
	pprof.StopCPUProfile()
	ins.tr.end(ins.root)
	runtime.GC() // the runtime's CPU-class accounting is brought up to date at a GC
	rt1 := readRuntime()
	if err != nil {
		return nil, nil, err
	}
	cpu, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	spans := ins.tr.snapshot()
	base := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d", name, seed))
	spanFile := base + ".json"
	if err := ins.tr.writeFile(spanFile); err != nil {
		return nil, nil, err
	}
	snap := ins.reg.Snapshot()
	regJSON, err := snap.JSON()
	if err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(base+".registry.json", regJSON, 0o644); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}

	v := map[string]float64{}
	// internal/nn: CPU-profile self-time shares (no public boundary inside).
	v["nn.cpu_frac"] = cpu.share(false, "repro/internal/nn.")
	v["nn.gemm.cpu_frac"] = cpu.share(false, "repro/internal/nn.gemm", "repro/internal/nn.packTranspose")
	v["nn.tanh.cpu_frac"] = cpu.share(false, "repro/internal/nn.tanhF32")
	v["nn.adam.cpu_frac"] = cpu.share(false, "repro/internal/nn.(*Adam)")
	v["nn.forward_batch.cpu_frac"] = cpu.share(true, "repro/internal/nn.(*MLP).ForwardBatch")
	v["demand.cpu_frac"] = cpu.share(false, "repro/internal/demand.")
	v["geo.cpu_frac"] = cpu.share(false, "repro/internal/geo.")
	v["serve.parse.cpu_frac"] = cpu.share(true, "repro/internal/serve.ParseBatch")

	// internal/policy and internal/sim, from the probe.
	if p := m.probe; p != nil && len(p.slots) > 0 {
		var decide, self, step []float64
		for _, s := range p.slots {
			d := s.actEnd.Sub(s.actStart)
			decide = append(decide, ms(d))
			self = append(self, ms(d-time.Duration(s.observeNs)))
			if !s.stepEnd.IsZero() {
				step = append(step, ms(s.stepEnd.Sub(s.stepStart)))
			}
		}
		n := float64(len(p.slots))
		v["policy.decide_ms"] = mean(decide)
		v["policy.decide_self_ms"] = mean(self)
		v["sim.step_ms"] = mean(step)
		v["sim.observe_calls"] = float64(p.observeN) / n
		if p.observeN > 0 {
			v["sim.observe_us"] = float64(p.observeNs) / float64(p.observeN) / 1e3
		}
		v["sim.invalid_actions"] = float64(p.invalid) / n

		// Engine phases from the registry timers, per stepped slot.
		slots := float64(snap.Counters["sim.slots"])
		if slots > 0 {
			var phases float64
			for _, ph := range []string{"begin_slot_apply", "route_migrants", "generate_and_match", "run_minute", "end_slot"} {
				t := float64(snap.Timers["shard.phase."+ph].TotalNs) / 1e6 / slots
				v["shard.phase."+ph+"_ms"] = t
				phases += t
			}
			v["shard.barrier_ms"] = v["sim.step_ms"] - phases
			v["sim.abandonments"] = float64(snap.Counters["sim.abandonments"]) / slots
		}
		if p.generated > 0 {
			v["sim.match_ratio"] = float64(snap.Counters["sim.matches"]) / float64(p.generated)
		}
	}

	// Runtime.
	if cpuS := rt1.cpu - rt0.cpu; cpuS > 0 {
		v["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / cpuS
	}
	if m.allocOps > 0 {
		v["runtime.alloc_bytes_per_op"] = float64(rt1.allocBytes-rt0.allocBytes) / m.allocOps
	}

	// Tracing: overhead on the headline throughput, and how much of the
	// measured time the spans beneath the root account for.
	if m.slotsPerSec > 0 {
		v["trace.overhead_frac"] = untraced.slotsPerSec/m.slotsPerSec - 1
	}
	v["trace.span_coverage"] = m.coverage
	if m.coverage < 0 {
		v["trace.span_coverage"] = coverage(spans, ins.root)
	}
	v["trace.spans"] = float64(len(spans))

	for k, x := range m.layers {
		v[k] = x
	}
	self := map[string]float64{}
	for name, d := range selfByName(spans) {
		self[name] = ms(d)
	}
	return withUnits(perLayer, v), &traceRecord{SpanFile: spanFile, SelfMs: self}, nil
}

// runtimeStats is a snapshot of the runtime's cumulative CPU and allocation
// accounting.
type runtimeStats struct {
	gcCPU, cpu float64
	allocBytes uint64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var out runtimeStats
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.cpu = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[2].Value.Uint64()
	}
	return out
}
