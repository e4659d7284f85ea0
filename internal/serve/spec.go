package serve

import (
	"fmt"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/search"
	"cocco/internal/serialize"
	"cocco/internal/tiling"
)

// Spec handling: a submitted JobSpecJSON is normalized once — defaults
// filled, every field validated — and the normalized form is what the
// manifest persists. Rebuilding search.Options from a persisted spec is
// therefore a pure function, which is what lets a restarted server resume a
// job under the exact fingerprint that produced its checkpoint.

// Admission caps. A spec asking for more is rejected (HTTP 400) before the
// daemon reserves anything for it: one request for a two-billion-genome
// population would otherwise take the whole process, and every job on it,
// down with an out-of-memory crash. Each cap sits well above every value
// the CLI defaults, examples, tests, and the paper's 400k-sample budgets
// use.
const (
	MaxPopulation = 2_000     // genomes per island; cocco's default is 100
	MaxSamples    = 4_000_000 // per island; 10x the paper's 400k budget
	MaxRing       = 64        // GA islands plus scouts
	MaxMigrants   = 1_000     // per island per barrier
	MaxCores      = 256
	MaxBatch      = 1_024
)

// NormalizeSpec fills defaults and validates every field of a submitted job
// spec, mirroring cmd/cocco's flag defaults. The returned spec is what the
// manifest stores; normalizing before persisting keeps spec→options a pure
// function across server restarts.
func NormalizeSpec(spec serialize.JobSpecJSON) (serialize.JobSpecJSON, error) {
	if spec.Model == "" {
		return spec, fmt.Errorf("serve: job spec: model is required")
	}
	if err := models.CheckName(spec.Model); err != nil {
		return spec, fmt.Errorf("serve: job spec: %w", err)
	}
	if spec.Tiling == "" {
		spec.Tiling = tiling.DefaultConfig().String()
	}
	if _, err := tiling.ParseConfig(spec.Tiling); err != nil {
		return spec, fmt.Errorf("serve: job spec: %w", err)
	}
	if spec.Cores == 0 {
		spec.Cores = 1
	}
	if spec.Batch == 0 {
		spec.Batch = 1
	}
	if spec.Cores < 1 || spec.Batch < 1 {
		return spec, fmt.Errorf("serve: job spec: cores and batch must be >= 1")
	}
	if spec.Cores > MaxCores {
		return spec, fmt.Errorf("serve: job spec: cores must be <= %d", MaxCores)
	}
	if spec.Batch > MaxBatch {
		return spec, fmt.Errorf("serve: job spec: batch must be <= %d", MaxBatch)
	}
	switch spec.Metric {
	case "":
		spec.Metric = "energy"
	case "ema", "energy":
	default:
		return spec, fmt.Errorf("serve: job spec: unknown metric %q (want ema or energy)", spec.Metric)
	}
	switch spec.Kind {
	case "":
		spec.Kind = "separate"
	case "separate", "shared":
	default:
		return spec, fmt.Errorf("serve: job spec: unknown buffer kind %q (want separate or shared)", spec.Kind)
	}
	if spec.MemSearch && spec.Alpha == 0 {
		return spec, fmt.Errorf("serve: job spec: mem_search requires alpha > 0 (Formula 2)")
	}
	if !spec.MemSearch {
		if spec.GLBKiB == 0 {
			spec.GLBKiB = 1024
		}
		if spec.Kind == "separate" && spec.WGTKiB == 0 {
			spec.WGTKiB = 1152
		}
		if spec.GLBKiB < 0 || spec.WGTKiB < 0 {
			return spec, fmt.Errorf("serve: job spec: buffer capacities must be positive")
		}
	}
	if spec.Population == 0 {
		spec.Population = 100
	}
	if spec.Population < 2 || spec.Population > MaxPopulation {
		return spec, fmt.Errorf("serve: job spec: population must be in [2, %d]", MaxPopulation)
	}
	if spec.Samples <= 0 || spec.Samples > MaxSamples {
		return spec, fmt.Errorf("serve: job spec: samples must be in [1, %d]", MaxSamples)
	}
	if spec.Islands == 0 {
		spec.Islands = 1
	}
	if spec.Islands < 1 {
		return spec, fmt.Errorf("serve: job spec: islands must be >= 1")
	}
	if spec.MigrateEvery == 0 {
		spec.MigrateEvery = 5
	}
	if spec.Migrants == 0 {
		spec.Migrants = 2
	}
	if spec.MigrateEvery < 1 || spec.Migrants < 1 {
		return spec, fmt.Errorf("serve: job spec: migrate_every and migrants must be >= 1")
	}
	if spec.Migrants > MaxMigrants {
		return spec, fmt.Errorf("serve: job spec: migrants must be <= %d", MaxMigrants)
	}
	if spec.Islands > MaxRing || len(spec.Scouts) > MaxRing-spec.Islands { // no overflowing sum
		return spec, fmt.Errorf("serve: job spec: islands + scouts must be <= %d", MaxRing)
	}
	for _, s := range spec.Scouts {
		if s != "sa" && s != "greedy" {
			return spec, fmt.Errorf("serve: job spec: unknown scout kind %q (want sa or greedy)", s)
		}
	}
	return spec, nil
}

// buildOptions converts a normalized spec into search.Options. Scheduling
// concerns — Checkpoint, MaxRounds, Workers, Progress — are left zero for
// the scheduler to fill per slice; none of them shape the trajectory, so
// the options fingerprint is a pure function of the spec.
func buildOptions(spec serialize.JobSpecJSON) (search.Options, error) {
	obj := eval.Objective{Metric: eval.MetricEnergy, Alpha: spec.Alpha}
	if spec.Metric == "ema" {
		obj.Metric = eval.MetricEMA
	}
	bufKind := hw.SeparateBuffer
	if spec.Kind == "shared" {
		bufKind = hw.SharedBuffer
	}
	ms := core.MemSearch{Kind: bufKind}
	if spec.MemSearch {
		ms.Search = true
		if bufKind == hw.SharedBuffer {
			ms.Global = hw.PaperSharedRange()
		} else {
			ms.Global = hw.PaperGlobalRange()
			ms.Weight = hw.PaperWeightRange()
		}
	} else {
		ms.Fixed = hw.MemConfig{Kind: bufKind, GlobalBytes: spec.GLBKiB * hw.KiB}
		if bufKind == hw.SeparateBuffer {
			ms.Fixed.WeightBytes = spec.WGTKiB * hw.KiB
		}
	}
	opt := search.Options{
		Core: core.Options{
			Seed:       spec.Seed,
			Population: spec.Population,
			MaxSamples: spec.Samples,
			Objective:  obj,
			Mem:        ms,
		},
		Islands:      spec.Islands,
		MigrateEvery: spec.MigrateEvery,
		Migrants:     spec.Migrants,
	}
	for _, s := range spec.Scouts {
		switch s {
		case "sa":
			opt.Scouts = append(opt.Scouts, search.ScoutSA)
		case "greedy":
			opt.Scouts = append(opt.Scouts, search.ScoutGreedy)
		default:
			return opt, fmt.Errorf("serve: unknown scout kind %q", s)
		}
	}
	return opt, nil
}

// newEvaluator builds the job's evaluator from its normalized spec.
func newEvaluator(spec serialize.JobSpecJSON) (*eval.Evaluator, error) {
	g, err := models.Build(spec.Model)
	if err != nil {
		return nil, err
	}
	tcfg, err := tiling.ParseConfig(spec.Tiling)
	if err != nil {
		return nil, err
	}
	platform := hw.DefaultPlatform()
	platform.Cores = spec.Cores
	platform.Batch = spec.Batch
	return eval.New(g, platform, tcfg)
}

// islandKind names ring index i under a normalized spec: GA islands first,
// then scouts — the same ring order search.Stats reports.
func islandKind(spec serialize.JobSpecJSON, i int) string {
	if i < spec.Islands {
		return "ga"
	}
	if j := i - spec.Islands; j < len(spec.Scouts) {
		return spec.Scouts[j]
	}
	return "?"
}
