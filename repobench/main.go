// Command repobench is the repository's benchmark. It drives three
// workloads through the public entry points of the session,
// experiments, store and cluster layers, checks their outputs, and
// prints one JSON result line:
//
//	bash repobench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 the run alternates untraced and
// traced phases, runs the layer micro-cases, and the result carries the
// per-layer metrics. README.md gives the workloads, the metrics and the
// predictions they are checked against.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed region in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics with tracing off; 1: traced run, per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the run's scratch stores (removed afterwards)")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "repobench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "repobench: -seconds must be positive")
		os.Exit(2)
	}
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "repobench: unknown workload %q (want %s)\n", cfg.workload, workloadNames())
		os.Exit(2)
	}
	res, detail, err := run(w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := errors.Join(out.Encode(detail), out.Encode(res)); err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		os.Exit(1)
	}
}

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the last line the benchmark prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// detail is printed before the result: the machine, the settings and
// every sample behind the metrics.
type detail struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	Scale      float64   `json:"scale"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	SetupS     []float64 `json:"setup_s_samples"`
	RequestMS  []float64 `json:"request_ms_samples"`
	// EndToEnd holds every end-to-end metric, including the two the
	// result line leaves out because they can be zero: sim_minst_per_s
	// (absent where the workload does not simulate) and error_rate.
	EndToEnd metricSet `json:"end_to_end"`
	// Traffic is the workload's own accounting of what answered it.
	Traffic map[string]float64 `json:"traffic"`
	// Phases splits a traced run's requests by whether tracing was on.
	Phases map[string]float64 `json:"phases,omitempty"`
	// RSSPeakReset tells whether peak_rss_mb covers the timed region
	// only (true) or the whole process, set-up included.
	RSSPeakReset bool `json:"rss_peak_reset"`
	// NotExercised lists per-layer metrics reported as 0 because the
	// workload's traffic never reaches that layer.
	NotExercised []string `json:"not_exercised,omitempty"`
}

// A run sets its workload up at least minSetupRounds times, and more
// while the set-ups so far took under setupBudget, up to maxSetupRounds;
// setup_s is the median and only the last set-up is measured. Cheap
// set-ups are repeated more because their single timings are noisier.
const (
	minSetupRounds = 3
	maxSetupRounds = 15
	setupBudget    = 2 * time.Second
)

func run(w benchWorkload, cfg config) (result, detail, error) {
	scale := w.scale
	d := detail{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Scale: scale,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return result{}, d, err
	}
	root, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return result{}, d, err
	}
	defer os.RemoveAll(root)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var inst instance
	var spent time.Duration
	for i := 0; i < maxSetupRounds && (i < minSetupRounds || spent < setupBudget); i++ {
		if inst != nil {
			inst.close()
		}
		dir, err := os.MkdirTemp(root, "setup-")
		if err != nil {
			return result{}, d, err
		}
		start := time.Now()
		inst, err = w.setup(setupEnv{seed: cfg.seed, scale: scale, jobs: runtime.NumCPU(), dir: dir, tr: tr})
		if err != nil {
			return result{}, d, fmt.Errorf("%s setup: %w", w.name, err)
		}
		took := time.Since(start)
		spent += took
		d.SetupS = append(d.SetupS, took.Seconds())
	}
	defer inst.close()

	// Start the timed region from a collected heap and a reset peak, so
	// peak_rss_mb is the workload's own peak rather than set-up's. Where
	// the kernel refuses the reset, the peak is the whole process's.
	runtime.GC()
	debug.FreeOSMemory()
	d.RSSPeakReset = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
	loop := drive(inst, w.clients, time.Duration(cfg.seconds*float64(time.Second)), tr)
	checked, checkFailed := inst.check()

	for _, s := range loop.samples {
		d.RequestMS = append(d.RequestMS, s.dur.Seconds()*1e3)
	}
	attempted, failed := loop.total.points, loop.total.failed+checkFailed
	failed = min(failed, attempted)
	d.Traffic = inst.traffic()
	d.Traffic["checked_points"] = float64(checked)
	d.Traffic["check_failures"] = float64(checkFailed)
	d.Traffic["requests"] = float64(len(loop.samples))
	d.Traffic["answered_points"] = float64(loop.total.points)
	d.Traffic["sim_points"] = float64(loop.total.sims)
	d.Traffic["wall_s"] = loop.wall.Seconds()

	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, d, err
	}
	e2e := metricSet{}
	wall := loop.wall.Seconds()
	e2e.set("setup_s", median(d.SetupS), "s")
	e2e.set("points_per_s", float64(loop.total.points)/wall, "1/s")
	e2e.set("request_p50_ms", quantile(d.RequestMS, 0.5), "ms")
	e2e.set("request_p90_ms", quantile(d.RequestMS, 0.9), "ms")
	if loop.total.sims > 0 {
		e2e.set("sim_minst_per_s", float64(loop.total.insts)/wall/1e6, "Minst/s")
	}
	e2e.set("peak_rss_mb", rss, "MiB")
	e2e.set("alloc_kb_per_point", float64(loop.allocBytes)/1024/float64(max(loop.total.points, 1)), "KiB")
	e2e.set("error_rate", float64(failed)/float64(max(attempted, 1)), "fraction")
	d.EndToEnd = e2e

	res := result{Correct: failed == 0 && attempted > 0, Attempted: max(attempted, 1), Failed: failed, Metrics: metricSet{}}
	if !cfg.trace {
		for _, name := range endToEndNames {
			res.Metrics[name] = e2e[name]
		}
		return res, d, nil
	}

	layers := metricSet{}
	d.Phases = loop.phases()
	// A run too short to hold requests in both phases reports no overhead.
	if traced, untraced := d.Phases["traced_points_per_busy_s"], d.Phases["untraced_points_per_busy_s"]; traced > 0 && untraced > 0 {
		layers.set("bench.trace_overhead_frac", 1-traced/untraced, "fraction")
	}
	busy, slots := inst.busy()
	layers.set("session.gate_util", (busy-loop.busyBefore).Seconds()/(loop.wall.Seconds()*float64(slots)), "fraction")
	memoUS, err := memoHitUS(inst)
	if err != nil {
		return result{}, d, err
	}
	layers.set("session.memo_hit_us", memoUS, "us")
	inst.layers(layers, indexSpans(tr.snapshot()))
	if err := microCases(layers); err != nil {
		return result{}, d, err
	}
	for _, pl := range perLayerNames {
		if _, ok := layers[pl.name]; !ok {
			layers.set(pl.name, 0, pl.unit)
			d.NotExercised = append(d.NotExercised, pl.name)
		}
	}
	res.Metrics = layers
	return res, d, nil
}

// endToEndNames are the metrics of an untraced result line. They are
// never zero on any workload.
var endToEndNames = []string{"points_per_s", "request_p50_ms", "request_p90_ms", "peak_rss_mb", "alloc_kb_per_point", "setup_s"}

// perLayerNames are the metrics of a traced result line, with units.
var perLayerNames = []struct{ name, unit string }{
	{"workload.build_ns_per_inst", "ns"},
	{"vcomp.trace_ns_per_inst", "ns"},
	{"prog.decode_ns_per_inst", "ns"},
	{"core.ns_per_cycle", "ns"},
	{"core.ns_per_inst", "ns"},
	{"core.ns_per_cycle_stepped", "ns"},
	{"core.ff_speedup", "x"},
	{"core.batch8_gain", "x"},
	{"session.gate_util", "fraction"},
	{"session.memo_hit_us", "us"},
	{"session.sim_points", "count"},
	{"session.store_hits", "count"},
	{"session.memo_hits", "count"},
	{"store.get_us", "us"},
	{"store.hit_ratio", "fraction"},
	{"store.put_us", "us"},
	{"store.do_us", "us"},
	{"store.trylock_us", "us"},
	{"store.record_kb", "KiB"},
	{"report.render_us_per_table", "us"},
	{"experiments.self_ms_per_pass", "ms"},
	{"cluster.coord_self_ms", "ms"},
	{"cluster.worker_ms_per_subsweep", "ms"},
	{"cluster.http_ms", "ms"},
	{"cluster.coalesced_frac", "fraction"},
	{"cluster.retries", "count"},
	{"cluster.hedges", "count"},
	{"cluster.hit_frac", "fraction"},
	{"bench.trace_overhead_frac", "fraction"},
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return fmt.Sprint(names)
}

func workloadByName(name string) (benchWorkload, bool) {
	i := slices.IndexFunc(workloads, func(w benchWorkload) bool { return w.name == name })
	if i < 0 {
		return benchWorkload{}, false
	}
	return workloads[i], true
}
