package core

import (
	"math/rand"
	"testing"

	"cocco/internal/eval"
	"cocco/internal/testutil"
)

// TestChildSeedStreamIndependence pins the seed-derivation contract the
// orchestrator relies on: the per-consumer streams (GA samples, island
// masters, migration, scouts) never collide over overlapping index ranges,
// so no two consumers of one run seed can end up replaying each other's
// randomness.
func TestChildSeedStreamIndependence(t *testing.T) {
	streams := []uint64{StreamSamples, StreamIslands, StreamMigration, StreamScouts}
	const indices = 4096
	for _, seed := range []int64{42, 7, -123456789} {
		seen := make(map[int64][2]uint64, len(streams)*indices)
		for _, s := range streams {
			for i := 0; i < indices; i++ {
				v := ChildSeedStream(seed, s, i)
				if prev, dup := seen[v]; dup {
					t.Fatalf("seed %d: stream %d index %d collides with stream %d index %d (value %d)",
						seed, s, i, prev[0], prev[1], v)
				}
				seen[v] = [2]uint64{s, uint64(i)}
			}
		}
	}
}

// TestSourceStateRestore pins the RNG checkpoint contract: a generator
// resumed from State continues bit-identically to the original, whatever
// mix of Rand methods produced the draws, and the stream is splitmix64's
// (the first draws from state 0 are the reference implementation's).
func TestSourceStateRestore(t *testing.T) {
	ref := NewSource(0)
	for i, want := range []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F} {
		if got := ref.Uint64(); got != want {
			t.Fatalf("draw %d from state 0: %#x, want %#x", i, got, want)
		}
	}
	src := NewSource(99)
	rng := rand.New(src)
	// A mixed workload touching every draw shape the search uses.
	for i := 0; i < 500; i++ {
		switch i % 5 {
		case 0:
			rng.Intn(17)
		case 1:
			rng.Float64()
		case 2:
			rng.NormFloat64()
		case 3:
			rng.Int63()
		default:
			rng.Uint64()
		}
	}
	restored := rand.New(NewSource(int64(src.State())))
	for i := 0; i < 200; i++ {
		if a, b := rng.Int63(), restored.Int63(); a != b {
			t.Fatalf("draw %d: %d != %d", i, a, b)
		}
		if a, b := rng.Float64(), restored.Float64(); a != b {
			t.Fatalf("draw %d: %v != %v", i, a, b)
		}
	}
}

// TestOptimizerStateRoundTrip runs half a search, exports the state,
// rebuilds a second optimizer from it, and checks both finish identically
// — the in-process version of the orchestrator's checkpoint contract. The
// rebuilt optimizer starts with an empty genome memo, so its MemoHits may
// only fall short.
func TestOptimizerStateRoundTrip(t *testing.T) {
	ev := testEval(t, "resnet50")
	opt := Options{
		Seed: 3, Workers: 2, Population: 16, MaxSamples: 400,
		Objective: eval.Objective{Metric: eval.MetricEMA},
		Mem:       MemSearch{Fixed: fixedMem()},
	}
	a, err := NewOptimizer(ev, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		a.Step()
	}
	b, err := NewOptimizerFromState(testEval(t, "resnet50"), opt, a.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	for a.Step() {
	}
	for b.Step() {
	}
	bestA, statsA, errA := a.Finish()
	bestB, statsB, errB := b.Finish()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("finish errors differ: %v vs %v", errA, errB)
	}
	if errA != nil {
		return
	}
	if bestA.Cost != bestB.Cost {
		t.Errorf("best cost %v != %v", bestA.Cost, bestB.Cost)
	}
	for id := 0; id < ev.Graph().Len(); id++ {
		if bestA.P.Of(id) != bestB.P.Of(id) {
			t.Fatalf("best assignments differ at node %d", id)
		}
	}
	if err := testutil.ResumedStats(statsA, statsB); err != nil {
		t.Error(err)
	}
}
