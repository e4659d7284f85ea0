package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
)

// metricDef names one metric the benchmark emits. better is "higher" or
// "lower".
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics BENCHMARK.json bounds; every workload emits
// them. Set-up time is the only one: the file's format requires it, and no
// other end-to-end metric holds a 10% bound between two sets of runs of one
// commit on a shared host (README: Noise).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's metrics. Every workload yields all of them.
// The first three are end-to-end metrics a user sees, reported here, without
// a bound, because they move between runs of one commit by more than 10%:
// search_s_p50 is the wall time of one search as the surface runs it (a
// cocco search, a sweep config, a coccod job's time in its slices, a fleet
// search). The rest come from each workload's replay, which drives every one
// of these layers with its own inputs.
var perLayer = []metricDef{
	{"samples_per_s", "samples/s", "higher"},
	{"search_s_p50", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"tiling.derive_us_p50", "us", "lower"},
	{"tiling.derives", "count", "lower"},
	{"eval.cold_subgraph_us_p50", "us", "lower"},
	{"eval.cache_entries", "count", "lower"},
	{"eval.cache_hit_ratio", "ratio", "higher"},
	{"eval.delta_reuse_ratio", "ratio", "higher"},
	{"eval.partition_us_p50", "us", "lower"},
	{"core.step_ms_p50", "ms", "lower"},
	{"core.mutation_us_p50", "us", "lower"},
	{"core.memo_hit_ratio", "ratio", "higher"},
	{"core.feasible_ratio", "ratio", "higher"},
	{"search.ring_step_share", "share", "lower"},
	{"search.migrate_ms_p50", "ms", "lower"},
	{"search.rounds", "count", "lower"},
	{"serialize.ckpt_bytes_p50", "bytes", "lower"},
	{"serialize.ckpt_bytes_max", "bytes", "lower"},
	{"serialize.ckpt_encode_ms_p50", "ms", "lower"},
	{"serialize.ckpt_write_ms_p50", "ms", "lower"},
	{"serialize.ckpt_decode_ms_p50", "ms", "lower"},
	{"search.restore_ms_p50", "ms", "lower"},
	{"serialize.ckpt_share", "share", "lower"},
	{"dist.frame_encode_us_per_kib", "us/KiB", "lower"},
	{"dist.frame_decode_us_per_kib", "us/KiB", "lower"},
	{"runtime.alloc_bytes_per_sample", "B/sample", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
}

// extraMetrics are printed as rows only, on the workloads they describe;
// they are not part of the result line.
var extraMetrics = []metricDef{
	{"searches", "count", "higher"},
	{"search_s_tail", "s", "lower"},
	{"search_s_tail_pct", "pct", "higher"},
	{"failed_ratio", "ratio", "lower"},
	{"configs_per_s", "configs/s", "higher"},
	{"job_turnaround_s_p50", "s", "lower"},
	{"job_turnaround_s_p90", "s", "lower"},
	{"job_turnaround_s_tail", "s", "lower"},
	{"job_turnaround_s_tail_pct", "pct", "higher"},
	{"bench.generator_lag_ms_max", "ms", "lower"},
	{"serve.queue_wait_s_p50", "s", "lower"},
	{"serve.requeue_wait_s_p50", "s", "lower"},
	{"serve.run_s_p50", "s", "lower"},
	{"serve.slices_per_job", "count", "lower"},
	{"serve.submit_ms_p50", "ms", "lower"},
	{"dse.config_s_p50", "s", "lower"},
	{"dse.infeasible_configs", "count", "lower"},
	{"dist.overhead_ratio", "ratio", "lower"},
}

// catalog finds the definition of any metric the benchmark emits.
func catalog(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer, extraMetrics} {
		for _, d := range set {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// row is one printed metric: {layer, workload, metric, value, unit}.
type row struct {
	Layer    string  `json:"layer"`
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
}

// report collects one run's rows and its attempted and failed counts. An
// attempt is one operation (search, config, job) or one output check.
type report struct {
	workload          string
	attempted, failed int
	rows              []row
}

// add records a metric; the unit comes from the catalog.
func (r *report) add(name string, v float64) {
	d, ok := catalog(name)
	if !ok {
		panic("bench: metric " + name + " is not in the catalog")
	}
	layer := "e2e"
	for i := range name {
		if name[i] == '.' {
			layer = name[:i]
			break
		}
	}
	r.rows = append(r.rows, row{Layer: layer, Workload: r.workload, Metric: name, Value: v, Unit: d.Unit})
}

// check counts one output check and reports a failed one on stderr.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %v\n", r.workload, err)
	}
}

// env describes the machine and build a run measured.
type env struct {
	Go         string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func currentEnv(cfg config) env {
	commit := os.Getenv("COCCO_BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return env{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: commit,
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
	}
}

// print writes the env header, one line per row, and last the result line:
// the end-to-end metrics of BENCHMARK.json on an untraced run, its per-layer
// ones on a traced run.
func (r *report) print(w io.Writer, e env) error {
	want := endToEnd
	if e.Trace {
		want = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	for _, d := range want {
		found := false
		for _, rw := range r.rows {
			if rw.Metric == d.Name {
				metrics[d.Name] = value{rw.Value, d.Unit}
				found = true
			}
		}
		if !found {
			return fmt.Errorf("%s did not measure %s", r.workload, d.Name)
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]env{"env": e}); err != nil {
		return err
	}
	for _, rw := range r.rows {
		if err := enc.Encode(rw); err != nil {
			return err
		}
	}
	return enc.Encode(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
}

// peakRSSMiB is this process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return maxRSSMiB(&ru)
}

// maxRSSMiB converts getrusage's maxrss, which Linux reports in KiB and
// macOS in bytes.
func maxRSSMiB(ru *syscall.Rusage) float64 {
	if runtime.GOOS == "darwin" {
		return float64(ru.Maxrss) / (1 << 20)
	}
	return float64(ru.Maxrss) / 1024
}
