package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// The smoke test's fleet re-executes this test binary as its workers.
	if os.Getenv(workerEnv) != "" {
		os.Exit(runWorker())
	}
	os.Exit(m.Run())
}

func TestMedianQuartilesTail(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		// Values from Python's statistics.median and statistics.quantiles(xs, n=4).
		{ten, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}

	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, to exercise the sort
		}
		return xs
	}
	for _, c := range []struct{ n, pct int }{{30, 66}, {100, 90}, {1000, 99}, {21, 52}} {
		pct, v, ok := tail(seq(c.n))
		above := c.n - int(v)
		if !ok || pct != c.pct || above < 10 {
			t.Errorf("tail of %d samples: p%d = %v (ok %v, %d above), want p%d with >= 10 above", c.n, pct, v, ok, above, c.pct)
		}
	}
	if _, _, ok := tail(seq(20)); ok {
		t.Error("tail of 20 samples should leave only the median")
	}
	for _, c := range []struct{ pct, want float64 }{{90, 9}, {91, 10}, {50, 5}, {0, 1}} {
		if got := percentile(ten, c.pct); got != c.want {
			t.Errorf("nearest-rank p%v of 1..10 = %v, want %v", c.pct, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", SpanID: 1, StartNS: 0, EndNS: 100},
		{Name: "a", SpanID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{Name: "b", SpanID: 3, Parent: 1, StartNS: 30, EndNS: 60},    // overlaps a
		{Name: "c", SpanID: 4, Parent: 1, StartNS: 90, EndNS: 120},   // runs past root
		{Name: "leaf", SpanID: 5, Parent: 2, StartNS: 15, EndNS: 20}, // nested in a
		{Name: "b", SpanID: 6, StartNS: 200, EndNS: 207},             // a second root
	}
	want := map[string]time.Duration{"root": 100 - 50 - 10, "a": 30 - 5, "b": 30 + 7, "c": 30, "leaf": 5}
	got := selfTimes(spans)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

func TestGeneratorsAreSeeded(t *testing.T) {
	a, b := coexploreOps(1, 16), coexploreOps(2, 16)
	if !slices.Equal(a, coexploreOps(1, 16)) || slices.Equal(a, b) {
		t.Error("search list is not a function of the seed alone")
	}
	for i := 0; i < len(a); i += len(coexploreModels) {
		models := make([]string, 0, len(coexploreModels))
		for _, op := range a[i : i+len(coexploreModels)] {
			models = append(models, op.Model)
		}
		slices.Sort(models)
		want := slices.Clone(coexploreModels)
		slices.Sort(want)
		if !slices.Equal(models, want) {
			t.Errorf("block %d holds %v, want each model once", i/len(coexploreModels), models)
		}
	}

	const window = 1000 * time.Second
	jobs := func(seed int64) []byte {
		data, err := json.Marshal(jobSchedule(seed, 1.5, window, 6))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(jobs(1), jobs(1)) || bytes.Equal(jobs(1), jobs(2)) {
		t.Error("job list is not a function of the seed alone")
	}
	ops := jobSchedule(1, 1.5, window, 6)
	for i, op := range ops {
		if op.Due < 0 || op.Due >= window || (i > 0 && op.Due < ops[i-1].Due) {
			t.Errorf("job %d due at %v: not in order within %v", i, op.Due, window)
		}
	}
	// 1500 arrivals are expected; a Poisson count's standard deviation is
	// sqrt(1500), about 39.
	if n := len(ops); n < 1350 || n > 1650 {
		t.Errorf("%d jobs in %v at 1.5 jobs/s", n, window)
	}
	if n := len(jobSchedule(1, 1.5, 0, 6)); n != 6 {
		t.Errorf("an empty window gives %d jobs, want the minimum of 6", n)
	}

	if !slices.Equal(seeds(1, 8), seeds(1, 8)) || slices.Equal(seeds(1, 8), seeds(2, 8)) {
		t.Error("search seeds are not a function of the run seed alone")
	}
}

func TestBenchmarkFile(t *testing.T) {
	b, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not one the benchmark runs", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	var e2e []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.metricDef)
		// Every bound is at most 10%, but set-up time's, which must be the
		// largest (README: Noise).
		limit := 0.10
		if m.Name == "setup_s" {
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, limit)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end = %v, the benchmark emits %v", e2e, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer = %v, the benchmark emits %v", b.PerLayer, perLayer)
	}
	for _, m := range append(e2e, b.PerLayer...) {
		names = append(names, m.Name)
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	cases := []struct {
		change  []float64
		better  string
		bounded bool
		want    string
	}{
		{shift(10), "higher", true, "improved"},
		{shift(-10), "lower", true, "improved"},
		{shift(-20), "higher", true, "regressed"},
		{shift(-2), "higher", true, "unchanged"},
		{shift(-20), "higher", false, "regressed"},
		{shift(0.5), "higher", false, "unchanged"},
	}
	for _, c := range cases {
		if got := verdict(base, c.change, c.better, 0.1, c.bounded); got != c.want {
			t.Errorf("change %v (%s, bounded %v): %s, want %s", c.change[:3], c.better, c.bounded, got, c.want)
		}
	}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	if got := verdict(noisy, shift(-15), "higher", 0.1, true); got != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", got)
	}

	none := make([]float64, 10)
	one := slices.Clone(none)
	one[4] = 0.01
	if got := verdict(none, one, "lower", 0, true); got != "regressed" {
		t.Errorf("one failing run against none, bound 0: %s, want regressed", got)
	}
	if got := verdict(none, none, "lower", 0, true); got != "unchanged" {
		t.Errorf("no failures on either side: %s, want unchanged", got)
	}
}

// TestSmoke runs every workload traced — its measured window, then the
// replay — at about a hundredth of its sample budgets with every output
// check on, and prints both result lines from it.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			cfg := config{workload: name, seed: 3, trace: true, scale: 0.01,
				dir: filepath.Join(dir, "run"), spans: filepath.Join(dir, "spans.json")}
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%d of %d attempts failed", rep.failed, rep.attempted)
			}
			for _, trace := range []bool{false, true} {
				cfg.trace = trace
				if err := rep.print(&bytes.Buffer{}, currentEnv(cfg)); err != nil {
					t.Fatal(err)
				}
			}
			for _, r := range rep.rows {
				if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
					t.Errorf("%s = %v", r.Metric, r.Value)
				}
			}
			var spans []span
			data, err := os.ReadFile(cfg.spans)
			if err == nil {
				err = json.Unmarshal(data, &spans)
			}
			if err != nil || len(spans) == 0 {
				t.Errorf("span file: %d spans, %v", len(spans), err)
			}
		})
	}
}
