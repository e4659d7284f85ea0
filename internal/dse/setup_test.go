package dse

import (
	"testing"

	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
)

// sweepSetupGrid is the two-model, 32-config sweep of `cmd/dse -models
// resnet50,googlenet -glb 256,512,1024,2048 -wgt 576,1152 -cores 1,2`.
func sweepSetupGrid() Grid {
	return Grid{
		Models:      []string{"resnet50", "googlenet"},
		GlobalBytes: []int64{256 * hw.KiB, 512 * hw.KiB, 1024 * hw.KiB, 2048 * hw.KiB},
		WeightBytes: []int64{576 * hw.KiB, 1152 * hw.KiB},
		Cores:       []int{1, 2},
	}
}

// BenchmarkSweepSetup measures what Run does before its first config:
// expand and check the grid, then build each model's graph and its
// GraphContext. Nothing is shared between iterations, as nothing is shared
// between two processes.
func BenchmarkSweepSetup(b *testing.B) {
	grid := sweepSetupGrid()
	b.ReportAllocs()
	for b.Loop() {
		configs, err := grid.Configs()
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range grid.Models {
			eval.NewGraphContext(models.MustBuild(m), configs[0].Tiling)
		}
	}
}
