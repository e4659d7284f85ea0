package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// seriesKey identifies one metric of one workload.
type seriesKey struct{ workload, metric string }

// loadRows reads every metric row from the output of one or more runs,
// keeping the values of each (workload, metric) in run order.
func loadRows(path string) (map[seriesKey][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[seriesKey][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r row
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Metric != "" {
			k := seriesKey{r.Workload, r.Metric}
			out[k] = append(out[k], r.Value)
		}
	}
	return out, sc.Err()
}

// verdict judges one (workload, metric) pair of a parent and a change
// commit; parent[i] and change[i] form pair i. The change improved when it
// wins at least nine tenths of the pairs and the medians differ, in its
// favour, by more than the parent's interquartile distance. Otherwise, for a
// metric with a bound: unresolved when the parent's own spread exceeds the
// bound (unless every change run beats every parent run), regressed when the
// change's median is worse by more than the bound, unchanged else. A bound of
// 0 admits nothing worse: the change regresses when its worst run is worse
// than the parent's worst. A metric without a bound regresses by the mirror
// of the gain rule.
func verdict(parent, change []float64, better string, bound float64, bounded bool) string {
	sign := direction(better)
	won, lost, pairs := pairWins(parent, change, better)
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	spread := q3 - q1
	gain := sign * (mc - mp)
	switch {
	case pairs > 0 && float64(won) >= 0.9*float64(pairs) && gain > spread:
		return "improved"
	case bounded && bound == 0:
		if sign*(worst(change, sign)-worst(parent, sign)) < 0 {
			return "regressed"
		}
		return "unchanged"
	case !bounded:
		if pairs > 0 && float64(lost) >= 0.9*float64(pairs) && -gain > spread {
			return "regressed"
		}
		return "unchanged"
	case spread > bound*math.Abs(mp) && !allBetter(parent, change, sign):
		return "unresolved"
	case -gain > bound*math.Abs(mp):
		return "regressed"
	}
	return "unchanged"
}

// direction is +1 for a metric where higher is better, -1 otherwise.
func direction(better string) float64 {
	if better == "lower" {
		return -1
	}
	return 1
}

// pairWins counts the pairs the change wins and loses; ties count for
// neither.
func pairWins(parent, change []float64, better string) (won, lost, pairs int) {
	pairs = min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		switch d := direction(better) * (change[i] - parent[i]); {
		case d > 0:
			won++
		case d < 0:
			lost++
		}
	}
	return won, lost, pairs
}

// worst is the least favourable value of xs, which is not empty.
func worst(xs []float64, sign float64) float64 {
	w := xs[0]
	for _, x := range xs[1:] {
		if sign*x < sign*w {
			w = x
		}
	}
	return w
}

// allBetter reports whether every change value beats every parent value.
func allBetter(parent, change []float64, sign float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) <= 0 {
				return false
			}
		}
	}
	return len(parent) > 0 && len(change) > 0
}

// runCompare prints a verdict per (workload, metric) pair present in both
// sets of runs, with each side's median and quartiles.
func runCompare(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: bench compare [-benchmark BENCHMARK.json] parent.jsonl change.jsonl")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	b, err := loadBenchmark(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	// failed_ratio is bounded at 0: no change may fail more. It is not in
	// BENCHMARK.json, whose end-to-end metrics must never read 0.
	bounds := map[string]float64{"failed_ratio": 0}
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	parent, err := loadRows(fs.Arg(0))
	if err == nil {
		var change map[seriesKey][]float64
		if change, err = loadRows(fs.Arg(1)); err == nil {
			printVerdicts(w, parent, change, bounds)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	return 0
}

func printVerdicts(w io.Writer, parent, change map[seriesKey][]float64, bounds map[string]float64) {
	var keys []seriesKey
	for k := range parent {
		if _, ok := change[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-16s %-32s %-10s %-36s %-36s %-9s %s\n", "workload", "metric", "unit", "parent median [q1, q3] (n)", "change median [q1, q3] (n)", "pairs won", "verdict")
	side := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), q1, q3, len(xs))
	}
	for _, k := range keys {
		d, _ := catalog(k.metric)
		bound, bounded := bounds[k.metric]
		p, c := parent[k], change[k]
		won, _, pairs := pairWins(p, c, d.Better)
		fmt.Fprintf(w, "%-16s %-32s %-10s %-36s %-36s %-9s %s\n", k.workload, k.metric, d.Unit, side(p), side(c),
			fmt.Sprintf("%d/%d", won, pairs), verdict(p, c, d.Better, bound, bounded))
	}
}
