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

// Spec handling: a submitted JobSpecJSON is normalized — defaults filled,
// every field validated — and the normalized form is what the manifest
// persists; a restarted server normalizes it again on re-admission, which
// changes nothing in a spec NormalizeSpec produced. Rebuilding
// search.Options from a persisted spec is therefore a pure function, which
// is what lets a restarted server resume a job under the exact fingerprint
// that produced its checkpoint.
//
// NormalizeSpec, BuildOptions and NewEvaluator are also the front door of
// cmd/cocco, which fills a spec from its flags, and NewEvaluator that of
// cmd/coccow: a job, a CLI run and a fleet worker build alike.

// NormalizeSpec fills defaults and validates every field of a submitted job
// spec. cmd/cocco's flag defaults are a fixed point of it (its tests check
// that). The returned spec is what the manifest stores; normalizing before
// persisting keeps spec→options a pure function across server restarts.
//
// The spec's own rules are its names, its KiB fields (at most
// hw.MaxBufferKiB) and that mem_search needs Formula 2; the platform and
// search rules are hw.Platform.Validate's and search.Options.Validate's, the
// ones every other door checks.
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
	if err := specPlatform(spec).Validate(); err != nil {
		return spec, fmt.Errorf("serve: job spec: %w", err)
	}
	if spec.Metric == "" {
		spec.Metric = "energy"
	}
	if spec.Kind == "" {
		spec.Kind = hw.SeparateBuffer.String()
	}
	// Formula 1 never prices capacity, so searching memory under it is a
	// library experiment (TestSimulateSearchedSubgraphs runs one), not a job.
	if spec.MemSearch && spec.Alpha == 0 {
		return spec, fmt.Errorf("serve: job spec: mem_search requires alpha > 0 (Formula 2)")
	}
	if !spec.MemSearch {
		if spec.GLBKiB == 0 {
			spec.GLBKiB = 1024
		}
		if spec.Kind == hw.SeparateBuffer.String() && spec.WGTKiB == 0 {
			spec.WGTKiB = 1152
		}
		if spec.GLBKiB < 0 || spec.WGTKiB < 0 {
			return spec, fmt.Errorf("serve: job spec: buffer capacities must be positive")
		}
		if spec.GLBKiB > hw.MaxBufferKiB {
			return spec, fmt.Errorf("serve: job spec: glb_kib must be <= %d", hw.MaxBufferKiB)
		}
		if spec.WGTKiB > hw.MaxBufferKiB {
			return spec, fmt.Errorf("serve: job spec: wgt_kib must be <= %d", hw.MaxBufferKiB)
		}
	}
	opt, err := BuildOptions(spec)
	if err != nil {
		return spec, err
	}
	if err := opt.Validate(); err != nil {
		return spec, fmt.Errorf("serve: job spec: %w", err)
	}
	opt = opt.WithDefaults()
	spec.Population, spec.Islands = opt.Core.Population, opt.Islands
	spec.MigrateEvery, spec.Migrants = opt.MigrateEvery, opt.Migrants
	return spec, nil
}

// BuildOptions converts a normalized spec into search.Options. An unknown
// metric, buffer kind or scout name is an error, never a default.
// Scheduling concerns — Checkpoint, MaxRounds, Workers, Progress — are left
// zero for the caller to fill (the server per slice, cocco from its flags);
// none of them shape the trajectory, so the options fingerprint is a pure
// function of the spec.
func BuildOptions(spec serialize.JobSpecJSON) (search.Options, error) {
	metric, err := eval.ParseMetric(spec.Metric)
	if err != nil {
		return search.Options{}, fmt.Errorf("serve: job spec: %w", err)
	}
	kind, err := hw.ParseBufferKind(spec.Kind)
	if err != nil {
		return search.Options{}, fmt.Errorf("serve: job spec: %w", err)
	}
	var scouts []search.ScoutKind
	for _, s := range spec.Scouts {
		k, err := search.ParseScoutKind(s)
		if err != nil {
			return search.Options{}, fmt.Errorf("serve: job spec: %w", err)
		}
		scouts = append(scouts, k)
	}
	ms := core.MemSearch{Kind: kind, Fixed: hw.MemConfig{Kind: kind, GlobalBytes: spec.GLBKiB * hw.KiB}}
	if spec.MemSearch {
		ms = core.PaperSpace(kind)
	} else if kind == hw.SeparateBuffer {
		ms.Fixed.WeightBytes = spec.WGTKiB * hw.KiB
	}
	return search.Options{
		Core: core.Options{
			Seed:       spec.Seed,
			Population: spec.Population,
			MaxSamples: spec.Samples,
			Objective:  eval.Objective{Metric: metric, Alpha: spec.Alpha},
			Mem:        ms,
		},
		Islands:      spec.Islands,
		MigrateEvery: spec.MigrateEvery,
		Migrants:     spec.Migrants,
		Scouts:       scouts,
	}, nil
}

// specPlatform is the paper platform at the spec's cores and batch.
func specPlatform(spec serialize.JobSpecJSON) hw.Platform {
	platform := hw.DefaultPlatform()
	platform.Cores = spec.Cores
	platform.Batch = spec.Batch
	return platform
}

// NewEvaluator builds the job's evaluator from its model, tiling, cores and
// batch, the only fields it reads. coccow passes a spec holding just those
// four from its flags.
func NewEvaluator(spec serialize.JobSpecJSON) (*eval.Evaluator, error) {
	g, err := models.Build(spec.Model)
	if err != nil {
		return nil, err
	}
	tcfg, err := tiling.ParseConfig(spec.Tiling)
	if err != nil {
		return nil, err
	}
	return eval.New(g, specPlatform(spec), tcfg)
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
