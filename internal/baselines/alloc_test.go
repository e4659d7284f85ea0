package baselines

import (
	"testing"

	"cocco/internal/eval"
)

// warmAllocs runs search once to warm the evaluator's cost cache, then
// returns the allocations of one more (warm) run.
func warmAllocs(t *testing.T, search func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector disables sync.Pool reuse; alloc pins are meaningless")
	}
	search()
	return testing.AllocsPerRun(1, search)
}

// TestDPAllocs pins a warm DP on resnet50: each candidate range's
// connectivity is decided with one reusable pair of Marks and one walk
// buffer, so the candidates allocate nothing and what is left is the DP's
// own tables and the partition it returns.
func TestDPAllocs(t *testing.T) {
	ev := testEval(t, "resnet50")
	allocs := warmAllocs(t, func() { DP(ev, paperMem(), eval.MetricEMA) })
	if allocs > 200 {
		t.Errorf("warm DP allocates %.0f times, want at most 200", allocs)
	}
}

// TestEnumerateAllocs pins a warm Enumerate on resnet50: candidates reuse
// one member slice as well as the connectivity walk's Marks and buffer, so
// the allocations left are the downset lattice's and the result's.
func TestEnumerateAllocs(t *testing.T) {
	ev := testEval(t, "resnet50")
	allocs := warmAllocs(t, func() {
		if _, _, err := Enumerate(ev, paperMem(), eval.MetricEMA); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Errorf("warm Enumerate allocates %.0f times, want at most 1000", allocs)
	}
}
