package core

import (
	"math/rand"
	"runtime"
	"testing"

	"cocco/internal/eval"
	"cocco/internal/hw"
)

// TestGAStepAllocs pins the bytes a warm GA step allocates per sample, on
// dse-sweep's search shape: resnet50 at fixed memory, population 100, one
// scoring goroutine. Samples 1–2,000 warm the cost cache and are not
// counted. Each scored sample used to seed a 4.9 KB math/rand source for its
// repair stream, and the step allocated about 6,010 B a sample with go1.24;
// with an 8-byte splitmix64 source it allocated about 3,650 B, and since
// Evaluator.Partition sorts member runs into pooled scratch (allocating only
// its Result) about 1,800 B.
func TestGAStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins describe the build without the race detector")
	}
	o, err := NewOptimizer(testEval(t, "resnet50"), Options{
		Seed: 1, Workers: 1, Population: 100, MaxSamples: 12_000,
		Objective: eval.Objective{Metric: eval.MetricEnergy},
		Mem:       MemSearch{Fixed: fixedMem()},
	})
	if err != nil {
		t.Fatal(err)
	}
	for o.SamplesUsed() < 2_000 && o.Step() {
	}
	warm := o.SamplesUsed()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for o.Step() {
	}
	runtime.ReadMemStats(&after)
	samples := o.SamplesUsed() - warm
	if samples != 10_000 {
		t.Fatalf("measured %d samples, want 10000", samples)
	}
	if perSample := (after.TotalAlloc - before.TotalAlloc) / uint64(samples); perSample > 2_500 {
		t.Errorf("a warm GA step allocates %d B per sample, want at most 2500", perSample)
	}
}

// TestRandomMemConfigAllocs: a memory draw picks Min + k·Step and expands
// no candidate list.
func TestRandomMemConfigAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins describe the build without the race detector")
	}
	rng := rand.New(NewSource(1))
	for _, ms := range []MemSearch{PaperSpace(hw.SeparateBuffer), PaperSpace(hw.SharedBuffer)} {
		if n := testing.AllocsPerRun(100, func() { RandomMemConfig(rng, ms) }); n != 0 {
			t.Errorf("%v: %v allocations a draw, want 0", ms.Kind, n)
		}
	}
}
