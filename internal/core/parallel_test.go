package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
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

// TestSharedPartitionConcurrentEval pins that evaluation only reads a
// partition: 8 goroutines run RepairInSitu and Evaluator.Partition on one
// shared, feasible partition through one cold evaluator, and every result
// must equal the serial one, with the partition left as it was. CI repeats
// it under -race, which reports any write to the shared partition.
func TestSharedPartitionConcurrentEval(t *testing.T) {
	const workers, rounds = 8, 4
	g := models.MustBuild("googlenet")
	mem := fixedMem()
	rng := rand.New(NewSource(5))
	p, want := RepairInSitu(testEval(t, "googlenet"), rng, RandomPartition(g, rng, 0.3), mem)
	if !want.Feasible() {
		t.Fatal("the shared partition is infeasible; repair would replace it")
	}
	assign, count := p.Assignment(), p.NumSubgraphs()
	ev := testEval(t, "googlenet") // cold, so the goroutines race cache misses too
	type outcome struct {
		same          bool
		repaired, got *eval.Result
	}
	out := make([][rounds]outcome, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				q, res := RepairInSitu(ev, rand.New(NewSource(int64(w*rounds+r))), p, mem)
				out[w][r] = outcome{same: q == p, repaired: res, got: ev.Partition(p, mem)}
			}
		}()
	}
	wg.Wait()
	for w := range out {
		for r, o := range out[w] {
			if !o.same {
				t.Errorf("goroutine %d round %d: RepairInSitu replaced a feasible partition", w, r)
			}
			if !reflect.DeepEqual(o.repaired, want) || !reflect.DeepEqual(o.got, want) {
				t.Errorf("goroutine %d round %d: results differ from the serial one\n repair: %+v\n   eval: %+v\n   want: %+v",
					w, r, o.repaired, o.got, want)
			}
		}
	}
	if !slices.Equal(p.Assignment(), assign) || p.NumSubgraphs() != count {
		t.Error("evaluation changed the shared partition")
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
