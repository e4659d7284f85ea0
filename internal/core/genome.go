// Package core implements the Cocco optimization framework (§4.3–§4.4): a
// genetic algorithm whose genomes pair a graph-partition scheme with a
// memory configuration, with customized crossover and mutation operators
// (modify-node, split-subgraph, merge-subgraph, mutation-DSE), tournament
// selection, and in-situ split repair of over-capacity subgraphs during
// evaluation.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/partition"
)

// Genome is one candidate solution: a partition scheme and the memory
// configuration it runs on.
type Genome struct {
	P    *partition.Partition
	Mem  hw.MemConfig
	Cost float64
	Res  *eval.Result
}

// Clone deep-copies the genome (evaluation results are shared; they are
// immutable).
func (g *Genome) Clone() *Genome {
	return &Genome{P: g.P.Clone(), Mem: g.Mem, Cost: g.Cost, Res: g.Res}
}

// MemSearch configures the hardware half of the search space.
type MemSearch struct {
	// Search enables memory DSE. When false, every genome uses Fixed.
	Search bool
	// Kind selects separate or shared buffers.
	Kind hw.BufferKind
	// Global and Weight are the capacity candidate ranges (Weight unused
	// for the shared design).
	Global, Weight hw.MemRange
	// Fixed is the configuration used when Search is false.
	Fixed hw.MemConfig
}

// PaperSpace is the paper's co-exploration space for a buffer design
// (§5.3): the global and weight ranges for separate buffers, the shared
// range alone for a shared one.
func PaperSpace(kind hw.BufferKind) MemSearch {
	if kind == hw.SharedBuffer {
		return MemSearch{Search: true, Kind: kind, Global: hw.PaperSharedRange()}
	}
	return MemSearch{Search: true, Kind: kind, Global: hw.PaperGlobalRange(), Weight: hw.PaperWeightRange()}
}

// TracePoint is reported to Options.Trace after every genome evaluation;
// the convergence (Fig. 12) and distribution (Fig. 13) experiments are
// built from this stream.
type TracePoint struct {
	// Sample is the 1-based evaluation counter.
	Sample int
	// Cost is the genome's objective cost (eval.Objective.Cost, so
	// eval.InfeasibleCost when the sample stayed infeasible: infeasible
	// samples tie).
	Cost float64
	// Metric is the raw metric value (EMA bytes or energy pJ).
	Metric float64
	// Mem is the genome's memory configuration.
	Mem hw.MemConfig
	// Feasible reports whether every subgraph fit after repair.
	Feasible bool
	// BestCost is the best feasible cost seen so far, including this point.
	BestCost float64
	// Generation is the GA generation the sample belongs to (0 = initial
	// population).
	Generation int
}

// The GA's hyper-parameters (§4.4), one setting for every run.
// search.Fingerprint prints them, so a checkpoint resumes only under the
// values that wrote it.
const (
	// Tournament is the tournament size of the selection stage.
	Tournament = 4
	// CrossoverProb is the probability an offspring comes from crossover
	// rather than cloning one parent.
	CrossoverProb = 0.7
	// PNewInit is the probability, during random initialization, that a
	// layer starts a new subgraph rather than joining its latest parent's.
	PNewInit = 0.35
	// MutModify, MutSplit, MutMerge and MutDSE are the per-offspring
	// probabilities of each customized mutation.
	MutModify, MutSplit, MutMerge, MutDSE = 0.3, 0.2, 0.3, 0.3
	// DSESigmaSteps is the standard deviation of mutation-DSE in units of
	// capacity-grid steps.
	DSESigmaSteps float64 = 2
)

// Options configures a Cocco run.
type Options struct {
	// Seed drives all randomness; runs are reproducible.
	Seed int64
	// Workers is the number of goroutines scoring genomes concurrently
	// (default runtime.NumCPU()). Candidate generation stays serial on the
	// master RNG and each sample's repair uses a child RNG derived from
	// (Seed, sample index), so results are bit-identical for every worker
	// count; Workers only changes wall-clock time.
	Workers int `json:"-"`
	// Population size (paper Fig. 13 uses 500).
	Population int
	// MaxSamples is the total genome-evaluation budget (paper: up to
	// 400,000 for partition-only, 50,000 for co-exploration); it has no
	// default.
	MaxSamples int
	// Objective is the cost function.
	Objective eval.Objective
	// Mem configures hardware search.
	Mem MemSearch
	// Init optionally seeds the initial population with partitions from
	// other optimizers (§4.3 benefit 4).
	Init []*partition.Partition `json:"-"`
	// Trace, if non-nil, receives every evaluated sample.
	Trace func(TracePoint) `json:"-"`
	// DisableCrossover and DisableInSituSplit support the ablation
	// benchmarks; both default to enabled behavior.
	DisableCrossover   bool
	DisableInSituSplit bool
	// DisableDeltaEval scores genomes with the full from-scratch
	// Evaluator.Partition instead of the incremental PartitionDelta. The two
	// paths are bit-identical (the equivalence suite pins this), so the flag
	// only exists for the delta-vs-full ablation and benchmarks.
	DisableDeltaEval bool
	// DisableGenomeMemo scores every candidate from scratch instead of
	// replaying the committed result of an identical earlier candidate
	// (same partition labels and memory configuration). The memo only replays
	// provably deterministic results, so the two modes are bit-identical
	// (TestGenomeMemoEquivalence); the flag exists for ablation and
	// benchmarks.
	DisableGenomeMemo bool
}

// Admission caps: a run asking for more is refused before anything is
// allocated for it. Each sits well above every budget the CLIs, examples,
// tests and the paper use.
const (
	MaxPopulation = 2_000     // genomes per population; the CLIs default to 100
	MaxSamples    = 4_000_000 // per run; 10x the paper's 400k budget
)

// WithDefaults returns the options with every zero field filled as
// NewOptimizer fills it: Population 100 and, for any non-positive value,
// Workers runtime.NumCPU(). A negative or out-of-range field stays for
// Validate to refuse; MaxSamples has no default.
func (o Options) WithDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.Population == 0 {
		o.Population = 100
	}
	return o
}

// Validate reports the first rule the options break once WithDefaults has
// filled them: the population and sample ranges, a finite α ≥ 0 (Formula 1
// at 0), a known metric and buffer kind, and a valid memory space (a fixed
// configuration, or capacity ranges passing hw.MemRange.Validate).
func (o Options) Validate() error {
	o = o.WithDefaults()
	switch {
	case o.Population < 2 || o.Population > MaxPopulation:
		return fmt.Errorf("core: population must be in [2, %d], got %d", MaxPopulation, o.Population)
	case o.MaxSamples < 1 || o.MaxSamples > MaxSamples:
		return fmt.Errorf("core: samples must be in [1, %d], got %d", MaxSamples, o.MaxSamples)
	case o.Objective.Alpha < 0 || math.IsNaN(o.Objective.Alpha) || math.IsInf(o.Objective.Alpha, 0):
		return fmt.Errorf("core: alpha must be a finite number >= 0, got %g", o.Objective.Alpha)
	case o.Objective.Metric != eval.MetricEMA && o.Objective.Metric != eval.MetricEnergy:
		return fmt.Errorf("core: unknown metric %d", o.Objective.Metric)
	case o.Mem.Kind != hw.SeparateBuffer && o.Mem.Kind != hw.SharedBuffer:
		return fmt.Errorf("core: unknown buffer kind %d", o.Mem.Kind)
	}
	if o.Mem.Search {
		if err := o.Mem.Global.Validate(); err != nil {
			return fmt.Errorf("core: global-buffer range: %w", err)
		}
		if err := o.Mem.Weight.Validate(); o.Mem.Kind == hw.SeparateBuffer && err != nil {
			return fmt.Errorf("core: weight-buffer range: %w", err)
		}
	} else if err := o.Mem.Fixed.Validate(); err != nil {
		return fmt.Errorf("core: fixed memory config: %w", err)
	}
	return nil
}

// RandomMemConfig draws a uniform memory configuration from the search
// ranges (§4.4.1: "every genome selects a capacity value in a given range
// following a uniform distribution").
func RandomMemConfig(rng *rand.Rand, ms MemSearch) hw.MemConfig {
	if !ms.Search {
		return ms.Fixed
	}
	pick := func(r hw.MemRange) int64 {
		return r.Min + int64(rng.Intn(r.Count()))*r.Step
	}
	if ms.Kind == hw.SharedBuffer {
		return hw.MemConfig{Kind: hw.SharedBuffer, GlobalBytes: pick(ms.Global)}
	}
	return hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: pick(ms.Global), WeightBytes: pick(ms.Weight)}
}
