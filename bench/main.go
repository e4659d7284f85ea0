// Command bench is the repository's benchmark. Each workload drives one
// user surface through its public Go API on inputs generated from a seed —
// a cocco co-exploration search (search.Run), a cmd/dse sweep (dse.Run), a
// coccod job server (serve.Server over HTTP), and a coccow fleet (dist.Run
// against worker processes) — checks that the outputs are correct, and
// prints every metric by name with its unit. A traced run then also replays
// its first operations through the layers' public functions, recording a
// span around every call, and prints the per-layer metrics.
//
// Run it from the root of a checkout:
//
//	bash bench/run.sh --workload cocco-coexplore --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload coccod-jobs --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh compare parent.jsonl change.jsonl
//
// Every line of output is JSON: an env header, one row per metric, and last
// a result line with the correct, attempted, failed and metrics keys. See
// README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workerEnv, when set, makes the process a coccow-fleet worker.
const workerEnv = "COCCO_BENCH_WORKER"

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64 // measured window; whole units of work run until it has passed
	trace    bool
	spans    string  // where a traced run writes its spans
	scale    float64 // sample budgets and job spacing; 1 in real runs, small in the smoke test
	dir      string  // scratch space for checkpoints, job directories and worker addresses
}

// buildDir holds everything bench/run.sh and the benchmark write.
var buildDir = filepath.Join("bench", ".build")

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config, *report) error{
	"cocco-coexplore": runCoexplore,
	"dse-sweep":       runSweep,
	"coccod-jobs":     runJobs,
	"coccow-fleet":    runFleet,
}

func main() {
	if os.Getenv(workerEnv) != "" {
		os.Exit(runWorker())
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	var (
		workload = flag.String("workload", "", "workload to run: cocco-coexplore, dse-sweep, coccod-jobs, coccow-fleet")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 20, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 replays the workload with spans and prints per-layer metrics")
		spans    = flag.String("spans", "", "span file of a traced run (default bench/.build/spans/<workload>-seed<n>.json)")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, spans: *spans, scale: 1,
		dir: filepath.Join(buildDir, "run", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	}
	rep, err := run(cfg)
	if err == nil {
		err = rep.print(os.Stdout, currentEnv(cfg))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// run executes one workload in a fresh scratch directory, which it removes.
func run(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dir)
	rep := &report{workload: cfg.workload}
	if err := workloads[cfg.workload](cfg, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if rep.attempted > 0 {
		rep.add("failed_ratio", float64(rep.failed)/float64(rep.attempted))
	}
	return rep, nil
}

// setupReps is how many times a run sets up, reporting the median: one
// set-up takes a millisecond or a few, and single timings of it on a shared
// 2-vCPU host vary by a quarter within a run (README: Noise).
const setupReps = 31

// timeSetup runs setup setupReps times and returns the median time in
// seconds. Each set-up returns its teardown (nil for none), which runs
// before the next; the last set-up's state is what the run then measures.
func timeSetup(setup func() (teardown func(), err error)) (float64, error) {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		teardown, err := setup()
		if err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(t).Seconds())
		if i < setupReps-1 && teardown != nil {
			teardown()
		}
	}
	return median(ds), nil
}

// window is what a run measured: its set-up time, the wall time of each
// search in seconds, the GA samples spent in busy time, and the peak RSS of
// the processes doing the work.
type window struct {
	setupS  float64
	searchS []float64
	samples int
	busy    time.Duration
	rssMiB  float64
}

// closedLoop is one client running operations back to back until the
// window has passed and a whole block of block operations is done,
// recording each operation's wall time. op returns the GA samples it spent.
// The heap is collected between operations, outside their timing: a user
// runs each search (or sweep) of these surfaces in a process of its own, so
// no operation inherits the garbage of the one before.
func closedLoop(cfg config, rep *report, w *window, block int, op func(i int) (int, error)) {
	start := time.Now()
	for i := 0; i%block != 0 || i == 0 || time.Since(start).Seconds() < cfg.seconds; i++ {
		runtime.GC()
		rep.attempted++
		t := time.Now()
		samples, err := op(i)
		d := time.Since(t)
		if err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "bench: %s operation %d: %v\n", cfg.workload, i, err)
			continue
		}
		w.searchS, w.busy, w.samples = append(w.searchS, d.Seconds()), w.busy+d, w.samples+samples
	}
}

// addWindow records what a window measured.
func addWindow(rep *report, w window) {
	rep.add("setup_s", w.setupS)
	rep.add("peak_rss_mib", w.rssMiB)
	rep.add("samples_per_s", ratio(float64(w.samples), w.busy.Seconds()))
	addTiming(rep, "search_s", w.searchS)
	rep.add("searches", float64(len(w.searchS)))
}

// addTiming records a timing's median as <name>_p50 and its tail: the
// highest whole percentile with at least ten samples above it, as
// <name>_tail and <name>_tail_pct (absent with 20 samples or fewer).
func addTiming(rep *report, name string, xs []float64) {
	rep.add(name+"_p50", median(xs))
	if pct, v, ok := tail(xs); ok {
		rep.add(name+"_tail", v)
		rep.add(name+"_tail_pct", float64(pct))
	}
}

// popSize is the GA population, 100 as the surfaces' users run it, scaled
// down with the sample budgets for the smoke test.
func popSize(scale float64) int {
	return max(10, int(100*scale))
}

// budget scales a sample budget for the smoke test, keeping at least two
// generations.
func budget(samples int, scale float64) int {
	return max(2*popSize(scale), int(float64(samples)*scale))
}
