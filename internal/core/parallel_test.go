package core

import (
	"testing"

	"cocco/internal/eval"
	"cocco/internal/hw"
)

// runTraced executes one search and captures everything an observer can see:
// the best cost, the per-generation best history, and the full trace stream.
func runTraced(t *testing.T, workers int, ms MemSearch, obj eval.Objective) (float64, []float64, []TracePoint) {
	t.Helper()
	ev := testEval(t, "googlenet")
	var trace []TracePoint
	best, stats, err := Run(ev, Options{
		Seed: 17, Workers: workers, Population: 30, MaxSamples: 1500,
		Objective: obj,
		Mem:       ms,
		Trace:     func(tp TracePoint) { trace = append(trace, tp) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return best.Cost, stats.BestHistory, trace
}

// TestWorkersDeterminism is the tentpole acceptance test: a fixed seed must
// produce bit-identical results whether genomes are scored on 1 goroutine or
// 8, for both the partition-only and the co-exploration objective.
func TestWorkersDeterminism(t *testing.T) {
	cases := []struct {
		name string
		ms   MemSearch
		obj  eval.Objective
	}{
		{"fixed-mem", MemSearch{Fixed: fixedMem()}, eval.Objective{Metric: eval.MetricEMA}},
		{"mem-dse", MemSearch{Search: true, Kind: hw.SeparateBuffer,
			Global: hw.PaperGlobalRange(), Weight: hw.PaperWeightRange()},
			eval.Objective{Metric: eval.MetricEnergy, Alpha: 0.002}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c1, h1, tr1 := runTraced(t, 1, tc.ms, tc.obj)
			c8, h8, tr8 := runTraced(t, 8, tc.ms, tc.obj)
			if c1 != c8 {
				t.Errorf("best cost differs: Workers=1 %g vs Workers=8 %g", c1, c8)
			}
			if len(h1) != len(h8) {
				t.Fatalf("BestHistory length differs: %d vs %d", len(h1), len(h8))
			}
			for i := range h1 {
				if h1[i] != h8[i] {
					t.Fatalf("BestHistory[%d] differs: %g vs %g", i, h1[i], h8[i])
				}
			}
			if len(tr1) != len(tr8) {
				t.Fatalf("trace length differs: %d vs %d", len(tr1), len(tr8))
			}
			for i := range tr1 {
				if tr1[i] != tr8[i] {
					t.Fatalf("trace[%d] differs: %+v vs %+v", i, tr1[i], tr8[i])
				}
			}
		})
	}
}

// TestWorkersDefaulted checks that an unset Workers falls back to a positive
// CPU count and that oversubscription (more workers than candidates) works.
func TestWorkersDefaulted(t *testing.T) {
	if w := (Options{}).WithDefaults().Workers; w < 1 {
		t.Errorf("defaulted Workers = %d, want >= 1", w)
	}
	ev := testEval(t, "vgg16")
	_, stats, err := Run(ev, Options{
		Seed: 3, Workers: 64, Population: 8, MaxSamples: 100,
		Objective: eval.Objective{Metric: eval.MetricEMA},
		Mem:       MemSearch{Fixed: fixedMem()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples != 100 {
		t.Errorf("samples = %d, want 100", stats.Samples)
	}
}

// TestChildSeedSpread guards against a degenerate child-seed mix: nearby
// sample indices must yield distinct seeds.
func TestChildSeedSpread(t *testing.T) {
	seen := map[int64]bool{}
	for s := 1; s <= 10_000; s++ {
		seen[ChildSeedStream(42, StreamSamples, s)] = true
	}
	if len(seen) != 10_000 {
		t.Errorf("childSeed collisions: %d distinct seeds for 10000 samples", len(seen))
	}
	if ChildSeedStream(1, StreamSamples, 5) == ChildSeedStream(2, StreamSamples, 5) {
		t.Error("ChildSeedStream ignores the run seed")
	}
}
