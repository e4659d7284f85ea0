package models

import "testing"

// setupModels are the models a cocco-coexplore search draws from, so their
// construction is that surface's whole set-up.
var setupModels = []string{"nasnet", "randwire-a", "randwire-b", "densenet121"}

// TestBuildAllocs pins the allocations of building each set-up model. Almost
// all that remain are node names, one per node; per-node or per-edge slices
// coming back would add hundreds. The ceilings sit ~5% above the counts
// measured with go1.24 (352, 188, 267, 250), so a toolchain's own
// allocation changes do not trip them.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins describe the build without the race detector")
	}
	ceiling := map[string]float64{"nasnet": 370, "randwire-a": 198, "randwire-b": 280, "densenet121": 263}
	for _, name := range setupModels {
		if got := testing.AllocsPerRun(20, func() { MustBuild(name) }); got > ceiling[name] {
			t.Errorf("Build(%q) allocates %.0f times, want at most %.0f", name, got, ceiling[name])
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	for _, name := range setupModels {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				MustBuild(name)
			}
		})
	}
}
