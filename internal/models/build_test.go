package models

import "testing"

// setupModels are the models whose construction is a surface's whole graph
// set-up: a cocco-coexplore search draws from nasnet, randwire-a,
// randwire-b and densenet121, and a dse-sweep sweeps resnet50 and
// googlenet.
var setupModels = []string{"nasnet", "randwire-a", "randwire-b", "densenet121", "resnet50", "googlenet"}

// TestBuildAllocs pins the allocations of building each set-up model. What
// remains is per-chunk builder storage: slabs, the name buffer, the edge
// and offset arrays, and the finished graph's few arrays. A node name the
// builder kept instead of copying would move every name concatenation to
// the heap, and per-node or per-edge slices would add hundreds. The
// ceilings sit ~5% above the counts measured with go1.24 (63, 86, 112, 73,
// 45, 45), so a toolchain's own allocation changes do not trip them.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins describe the build without the race detector")
	}
	ceiling := map[string]float64{
		"nasnet": 66, "randwire-a": 90, "randwire-b": 118, "densenet121": 77,
		"resnet50": 47, "googlenet": 47,
	}
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
