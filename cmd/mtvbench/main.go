// Command mtvbench regenerates the paper's evaluation: every table and
// figure (Tables 1-3, Figures 4-12) plus the ablation extensions, at a
// configurable workload scale. Independent simulation points fan out
// over a worker pool; results are identical for any -jobs value.
//
//	mtvbench -all                 # run everything on all cores
//	mtvbench -all -jobs 1         # same results, serially
//	mtvbench -all -store DIR      # persist results; a second run simulates nothing
//	mtvbench -exp fig10           # one experiment
//	mtvbench -format markdown     # EXPERIMENTS.md-ready output
//	mtvbench -list                # available experiment ids
//	mtvbench -catalog             # emit the docs/EXPERIMENTS.md catalog
//	mtvbench -golden              # byte-exact suite output (docs/GOLDEN.txt)
//	mtvbench -benchdoc            # generated section of docs/BENCHMARKS.md
//
// mtvbench is also the repository's perf-artifact harness (see
// docs/PERF.md and scripts/bench.sh):
//
//	mtvbench -bench-json -o BENCH_PR.json          # measure, record
//	mtvbench -bench-compare BENCH_baseline.json BENCH_PR.json
//	mtvbench -bench-compare base1.json,base2.json pr1.json,pr2.json   # pool samples per side
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mtvec"
	"mtvec/internal/stats"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id or 'all' (see -list)")
		all     = flag.Bool("all", false, "run every experiment (same as -exp all)")
		jobs    = flag.Int("jobs", runtime.NumCPU(), "max concurrent simulations (1 = serial)")
		scale   = flag.Float64("scale", mtvec.DefaultScale, "workload scale relative to Table 3 millions")
		format  = flag.String("format", "text", "text | markdown")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		catalog = flag.Bool("catalog", false, "emit the experiment catalog (docs/EXPERIMENTS.md) and exit")
		quiet   = flag.Bool("q", false, "suppress progress on stderr")
		timeout = flag.Duration("timeout", 0, "abort the suite after this long (0 = no limit)")
		stored  = flag.String("store", "", "persistent result store directory: reuse results across runs and processes")

		golden   = flag.Bool("golden", false, "emit the byte-exact full-suite output (docs/GOLDEN.txt) and exit")
		benchdoc = flag.Bool("benchdoc", false, "emit the generated section of docs/BENCHMARKS.md and exit")

		benchJSON       = flag.Bool("bench-json", false, "measure the benchmark suite and emit a BENCH JSON artifact")
		benchOut        = flag.String("o", "", "output file for -bench-json / -bench-compare (default stdout / none)")
		benchRef        = flag.String("bench-ref", "local", "ref label recorded in the -bench-json artifact")
		benchTime       = flag.Duration("benchtime", 300*time.Millisecond, "minimum measuring time per benchmark (-bench-json)")
		benchCount      = flag.Int("bench-count", 3, "samples per benchmark, fastest wins (-bench-json)")
		benchJobs       = flag.Int("bench-jobs", runtime.NumCPU(), "session gate width for the sweep benchmark cases (-bench-json)")
		benchCompare    = flag.Bool("bench-compare", false, "compare two sides of BENCH JSON files: mtvbench -bench-compare OLD[,OLD...] NEW[,NEW...]")
		maxRegress      = flag.Float64("max-regress", 0.10, "fail -bench-compare when geomean ns/op regresses more than this fraction")
		maxRegressBytes = flag.Float64("max-regress-bytes", 0.10, "fail -bench-compare when geomean B/op regresses more than this fraction")
		cpuprofile      = flag.String("cpuprofile", "", "write a CPU profile of the -bench-json run to this file")
		memprofile      = flag.String("memprofile", "", "write an allocation profile of the -bench-json run to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range mtvec.Experiments() {
			fmt.Printf("%-13s %s\n", e.ID, e.Title)
		}
		return
	}
	if *catalog {
		writeCatalog(os.Stdout)
		return
	}
	if *benchdoc {
		if err := writeBenchDoc(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "mtvbench:", err)
			os.Exit(1)
		}
		return
	}
	if *golden {
		// The golden gate depends on every byte: pin all experiments at
		// the default scale in deterministic text form, progress off. A
		// -store passes through — golden output must be identical served
		// from disk or simulated, which is what the CI store job proves.
		if err := run(context.Background(), os.Stdout, "all", mtvec.DefaultScale, "text", *jobs, true, *stored); err != nil {
			fmt.Fprintln(os.Stderr, "mtvbench:", err)
			os.Exit(1)
		}
		// The gate also holds the engine to its timeline invariant: no
		// run of the suite may book a unit out of start order.
		if n := stats.TimelineViolations(); n != 0 {
			fmt.Fprintf(os.Stderr, "mtvbench: %d busy interval(s) booked out of start order\n", n)
			os.Exit(1)
		}
		return
	}
	if *benchJSON {
		out := io.Writer(os.Stdout)
		if *benchOut != "" {
			f, err := os.Create(*benchOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mtvbench:", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		var progress io.Writer
		if !*quiet {
			progress = os.Stderr
		}
		stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mtvbench:", err)
			os.Exit(1)
		}
		err = runBenchJSON(out, *benchRef, *benchTime, *benchCount, *benchJobs, progress)
		if perr := stopProfiles(); err == nil {
			err = perr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mtvbench:", err)
			os.Exit(1)
		}
		return
	}
	if *benchCompare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "mtvbench: -bench-compare needs exactly two arguments: OLD[,OLD...] NEW[,NEW...]")
			os.Exit(2)
		}
		if err := runBenchCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *benchOut, *maxRegress, *maxRegressBytes); err != nil {
			fmt.Fprintln(os.Stderr, "mtvbench:", err)
			os.Exit(1)
		}
		return
	}
	expID := *exp
	if *all {
		expID = "all"
	}

	// Ctrl-C cancels in-flight simulations gracefully; -timeout adds a
	// deadline. Either way the partial-progress line still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if err := run(ctx, os.Stdout, expID, *scale, *format, *jobs, *quiet, *stored); err != nil {
		fmt.Fprintln(os.Stderr, "mtvbench:", err)
		os.Exit(1)
	}
}

// startProfiles begins CPU profiling and arranges the allocation
// profile (either may be ""); the returned stop writes and closes them.
// Profiling the bench run itself is the documented workflow for hunting
// sweep-path regressions (docs/PERF.md, "Profiling the sweep path").
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuF *os.File
	if cpuPath != "" {
		cpuF, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func run(ctx context.Context, w io.Writer, expID string, scale float64, format string, jobs int, quiet bool, storeDir string) error {
	var exps []mtvec.Experiment
	if expID == "all" {
		exps = mtvec.Experiments()
	} else {
		for _, id := range strings.Split(expID, ",") {
			e := mtvec.ExperimentByID(strings.TrimSpace(id))
			if e == nil {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			exps = append(exps, *e)
		}
	}
	render := mtvec.RenderResult
	switch format {
	case "text":
	case "markdown":
		render = mtvec.RenderResultMarkdown
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	if jobs <= 0 {
		jobs = runtime.NumCPU() // match the engine's normalization in the progress line
	}

	if !quiet {
		fmt.Fprintf(os.Stderr, "running %d experiment(s), jobs=%d ...\n", len(exps), jobs)
	}
	env := mtvec.NewEnv(scale)
	if storeDir != "" {
		st, err := mtvec.OpenStore(storeDir)
		if err != nil {
			return err
		}
		env.SetStore(st)
	}
	results, stats, err := mtvec.RunExperimentsContext(ctx, env, exps, jobs)
	if err != nil {
		if mtvec.IsContextErr(err) {
			return fmt.Errorf("interrupted after %d simulations (%v of simulation time): %w",
				env.Simulations(), env.BusyTime().Round(time.Millisecond), ctx.Err())
		}
		return err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr,
			"%d experiment(s), %d simulations in %v (jobs=%d, busy %v, ~%.1fx effective parallelism)\n",
			len(exps), stats.Simulations, stats.Wall.Round(time.Millisecond),
			stats.Jobs, stats.Busy.Round(time.Millisecond), stats.Parallelism())
		if storeDir != "" {
			fmt.Fprintf(os.Stderr, "store: %d hits, %d simulations persisted to %s\n",
				env.StoreHits(), stats.Simulations, storeDir)
		}
	}
	for _, res := range results {
		if err := render(w, res); err != nil {
			return err
		}
		if format == "text" {
			fmt.Fprintln(w)
		}
	}
	return nil
}

// writeCatalog emits the generated experiment catalog committed as
// docs/EXPERIMENTS.md.
func writeCatalog(w io.Writer) {
	fmt.Fprint(w, `# Experiment catalog

Generated by `+"`go run ./cmd/mtvbench -catalog`"+` — do not edit by hand.

Each experiment reproduces one artifact of Espasa & Valero,
"Multithreaded Vector Architectures" (HPCA-3, 1997), or quantifies one
of its stated extensions. "Paper shape" states what the paper reports,
so a regenerated table can be compared at a glance.

Regenerate everything (all cores, identical results at any job count):

    go run ./cmd/mtvbench -all
    go run ./cmd/mtvbench -all -jobs 1       # serial, byte-identical
    go run ./cmd/mtvbench -all -format markdown

`)
	for _, e := range mtvec.Experiments() {
		fmt.Fprintf(w, "## `%s` — %s\n\n", e.ID, e.Title)
		fmt.Fprintf(w, "**Paper shape:** %s\n\n", e.PaperShape)
		fmt.Fprintf(w, "```\ngo run ./cmd/mtvbench -exp %s\n```\n\n", e.ID)
	}
}
