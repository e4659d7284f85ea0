// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Figure 2 (NPU survey), Figure 3 (fusion-depth study),
// Figure 11 (graph-partition comparison), Tables 1–2 (hardware-mapping
// co-exploration with separate and shared buffers), Figure 12 (sample
// efficiency), Figure 13 (sample-point distribution), Figure 14 (α sweep),
// Table 3 (multi-core and batch study), plus the ablations DESIGN.md calls
// out. Each experiment prints the same rows or series the paper reports.
package experiments

import (
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/tiling"
)

// Config scales the search budgets. The paper's full budgets (400k samples
// for partition-only, 50k for co-exploration) are available via Paper(); the
// default trims them so the whole suite runs in minutes with the same
// qualitative outcome, and Quick() shrinks them further for benchmarks.
type Config struct {
	// Seed drives every stochastic component.
	Seed int64
	// Workers is the number of goroutines each search uses to score genomes
	// (0 = runtime.NumCPU()). Results are identical for every worker count;
	// only wall-clock time changes. The SA baseline anneals one chain, as
	// the paper's method does, so its rows are serial and ignore Workers.
	Workers int
	// PartitionSamples is the Cocco budget for partition-only searches
	// (Figure 11; paper: 400,000).
	PartitionSamples int
	// CoOptSamples is the per-method budget for co-exploration
	// (Tables 1–3, Figures 12–14; paper: 50,000).
	CoOptSamples int
	// FinalSamples is the budget of the final partition-only pass run at
	// the chosen memory configuration (§5.3.1).
	FinalSamples int
	// TwoStepCandidates is the number of capacity candidates RS/GS sample;
	// each candidate gets CoOptSamples/TwoStepCandidates GA samples
	// (paper: 5,000 per candidate).
	TwoStepCandidates int
	// Population is the GA population size.
	Population int
}

// Default returns budgets that finish the full suite in minutes.
func Default() Config {
	return Config{
		Seed:              42,
		PartitionSamples:  60_000,
		CoOptSamples:      30_000,
		FinalSamples:      15_000,
		TwoStepCandidates: 10,
		Population:        100,
	}
}

// Paper returns the paper's full budgets.
func Paper() Config {
	c := Default()
	c.PartitionSamples = 400_000
	c.CoOptSamples = 50_000
	c.FinalSamples = 50_000
	return c
}

// Quick returns heavily reduced budgets for unit tests and benchmarks.
func Quick() Config {
	return Config{
		Seed:              42,
		PartitionSamples:  4_000,
		CoOptSamples:      3_000,
		FinalSamples:      1_500,
		TwoStepCandidates: 5,
		Population:        50,
	}
}

// evaluatorFor builds the standard single-core evaluator for a model.
func evaluatorFor(model string, platform hw.Platform) *eval.Evaluator {
	g := models.MustBuild(model)
	return eval.MustNew(g, platform, tiling.DefaultConfig())
}

// platform1 is the single-core, batch-1 paper platform.
func platform1() hw.Platform { return hw.DefaultPlatform() }

// paperFixedMem returns the paper's fixed platform for the partition
// studies: 1 MB global buffer and 1.125 MB weight buffer (§5.2, Figure 3).
func paperFixedMem() hw.MemConfig {
	mem, _ := fixedMem("Buf(M)", hw.SeparateBuffer)
	return mem
}
