package serve

import (
	"fmt"
	"math"

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

// Admission caps. A spec asking for more is rejected (HTTP 400) before the
// daemon reserves anything for it: one request for a two-billion-genome
// population would otherwise take the whole process, and every job on it,
// down with an out-of-memory crash. cocco's flags pass through the same
// caps. Each cap sits well above every value the CLI defaults, examples,
// tests, and the paper's 400k-sample budgets use.
const (
	MaxPopulation = 2_000     // genomes per island; cocco's default is 100
	MaxSamples    = 4_000_000 // per island; 10x the paper's 400k budget
	MaxRing       = 64        // GA islands plus scouts
	MaxMigrants   = 1_000     // per island per barrier
	MaxCores      = 256
	MaxBatch      = 1_024
	MaxBufferKiB  = 1 << 30 // glb_kib and wgt_kib: 1 TiB, so ×1024 stays far from overflow
)

// NormalizeSpec fills defaults and validates every field of a submitted job
// spec. cmd/cocco's flag defaults are a fixed point of it (its tests check
// that). The returned spec is what the manifest stores; normalizing before
// persisting keeps spec→options a pure function across server restarts.
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
	if spec.Metric == "" {
		spec.Metric = "energy"
	}
	if spec.Kind == "" {
		spec.Kind = hw.SeparateBuffer.String()
	}
	names, err := parseNames(spec)
	if err != nil {
		return spec, err
	}
	// eval.Objective reads α < 0 as Formula 1. JSON carries no NaN or ±Inf;
	// cocco's -alpha parses both.
	if spec.Alpha < 0 || math.IsNaN(spec.Alpha) || math.IsInf(spec.Alpha, 0) {
		return spec, fmt.Errorf("serve: job spec: alpha must be a finite number >= 0")
	}
	if spec.MemSearch && spec.Alpha == 0 {
		return spec, fmt.Errorf("serve: job spec: mem_search requires alpha > 0 (Formula 2)")
	}
	if !spec.MemSearch {
		if spec.GLBKiB == 0 {
			spec.GLBKiB = 1024
		}
		if names.kind == hw.SeparateBuffer && spec.WGTKiB == 0 {
			spec.WGTKiB = 1152
		}
		if spec.GLBKiB < 0 || spec.WGTKiB < 0 {
			return spec, fmt.Errorf("serve: job spec: buffer capacities must be positive")
		}
		if spec.GLBKiB > MaxBufferKiB {
			return spec, fmt.Errorf("serve: job spec: glb_kib must be <= %d", MaxBufferKiB)
		}
		if spec.WGTKiB > MaxBufferKiB {
			return spec, fmt.Errorf("serve: job spec: wgt_kib must be <= %d", MaxBufferKiB)
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
	return spec, nil
}

// specNames is a spec's named choices, parsed.
type specNames struct {
	metric eval.Metric
	kind   hw.BufferKind
	scouts []search.ScoutKind
}

// parseNames parses the metric, buffer kind, and scout names of a spec
// whose defaults are filled. An unknown name is an error, never a default.
func parseNames(spec serialize.JobSpecJSON) (n specNames, err error) {
	if n.metric, err = eval.ParseMetric(spec.Metric); err != nil {
		return n, fmt.Errorf("serve: job spec: %w", err)
	}
	if n.kind, err = hw.ParseBufferKind(spec.Kind); err != nil {
		return n, fmt.Errorf("serve: job spec: %w", err)
	}
	for _, s := range spec.Scouts {
		k, err := search.ParseScoutKind(s)
		if err != nil {
			return n, fmt.Errorf("serve: job spec: %w", err)
		}
		n.scouts = append(n.scouts, k)
	}
	return n, nil
}

// BuildOptions converts a normalized spec into search.Options. Scheduling
// concerns — Checkpoint, MaxRounds, Workers, Progress — are left zero for
// the caller to fill (the server per slice, cocco from its flags); none of
// them shape the trajectory, so the options fingerprint is a pure function
// of the spec.
func BuildOptions(spec serialize.JobSpecJSON) (search.Options, error) {
	names, err := parseNames(spec)
	if err != nil {
		return search.Options{}, err
	}
	ms := core.MemSearch{Kind: names.kind, Fixed: hw.MemConfig{Kind: names.kind, GlobalBytes: spec.GLBKiB * hw.KiB}}
	if spec.MemSearch {
		ms = core.PaperSpace(names.kind)
	} else if names.kind == hw.SeparateBuffer {
		ms.Fixed.WeightBytes = spec.WGTKiB * hw.KiB
	}
	return search.Options{
		Core: core.Options{
			Seed:       spec.Seed,
			Population: spec.Population,
			MaxSamples: spec.Samples,
			Objective:  eval.Objective{Metric: names.metric, Alpha: spec.Alpha},
			Mem:        ms,
		},
		Islands:      spec.Islands,
		MigrateEvery: spec.MigrateEvery,
		Migrants:     spec.Migrants,
		Scouts:       names.scouts,
	}, nil
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
