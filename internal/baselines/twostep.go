package baselines

import (
	"fmt"
	"math/rand"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
)

// SampleMethod selects how the two-step scheme picks capacity candidates.
type SampleMethod int

const (
	// RandomSearch samples capacities uniformly at random (RS+GA).
	RandomSearch SampleMethod = iota
	// GridSearch enumerates a coarse grid deterministically from large to
	// small capacities (GS+GA), as in §5.3.2.
	GridSearch
)

func (m SampleMethod) String() string {
	if m == GridSearch {
		return "GS"
	}
	return "RS"
}

// TwoStepOptions configures the decoupled capacity-then-partition scheme.
type TwoStepOptions struct {
	Seed int64
	// Workers is the evaluation parallelism handed to each per-candidate
	// GA (0 = runtime.NumCPU()); it never changes results.
	Workers int
	// Method selects RS or GS capacity sampling.
	Method SampleMethod
	// Candidates is how many capacity configurations to try.
	Candidates int
	// SamplesPerCandidate is the partition-GA budget per capacity
	// (the paper evaluates 5,000 samples per candidate).
	SamplesPerCandidate int
	// Kind, Global, Weight define the capacity space.
	Kind           hw.BufferKind
	Global, Weight hw.MemRange
	// Objective must have Alpha > 0 (Formula 2) so capacities compete.
	Objective eval.Objective
	// Trace receives every underlying GA sample with a global sample index.
	Trace func(core.TracePoint)
}

func (o TwoStepOptions) withDefaults() TwoStepOptions {
	if o.Candidates <= 0 {
		o.Candidates = 10
	}
	if o.SamplesPerCandidate <= 0 {
		o.SamplesPerCandidate = 5_000
	}
	return o
}

// TwoStep runs the two-step scheme: sample capacity candidates, run a
// partition-only GA under each, and keep the best candidate under the
// co-exploration cost. Returns the best genome found. Each GA scores
// opt.Objective at its candidate's fixed capacity, so its genomes' and
// trace points' costs already compare across candidates.
func TwoStep(ev *eval.Evaluator, opt TwoStepOptions) (*core.Genome, error) {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))

	cands := opt.capacityCandidates(rng)
	if len(cands) == 0 {
		return nil, fmt.Errorf("baselines: no capacity candidates")
	}

	var best *core.Genome
	sampleBase := 0
	for ci, mem := range cands {
		gaOpt := core.Options{
			Seed:       opt.Seed + int64(ci) + 1,
			Workers:    opt.Workers,
			MaxSamples: opt.SamplesPerCandidate,
			Objective:  opt.Objective,
			Mem:        core.MemSearch{Search: false, Fixed: mem},
		}
		if opt.Trace != nil {
			base := sampleBase
			gaOpt.Trace = func(tp core.TracePoint) {
				tp.Sample += base
				opt.Trace(tp)
			}
		}
		g, _, err := core.Run(ev, gaOpt)
		sampleBase += opt.SamplesPerCandidate
		if err != nil {
			continue // this capacity admitted no feasible partition
		}
		if best == nil || g.Cost < best.Cost {
			best = g
		}
	}
	if best == nil {
		return nil, fmt.Errorf("baselines: two-step found no feasible solution")
	}
	return best, nil
}

// capacityCandidates draws the candidate list per the sampling method.
func (o TwoStepOptions) capacityCandidates(rng *rand.Rand) []hw.MemConfig {
	var out []hw.MemConfig
	switch o.Method {
	case GridSearch:
		// Coarse deterministic grid, large → small.
		g := o.Global.Candidates()
		if o.Kind == hw.SharedBuffer {
			for i := 0; i < o.Candidates && i < len(g); i++ {
				idx := len(g) - 1 - i*maxInt(len(g)/o.Candidates, 1)
				if idx < 0 {
					break
				}
				out = append(out, hw.MemConfig{Kind: hw.SharedBuffer, GlobalBytes: g[idx]})
			}
			return out
		}
		w := o.Weight.Candidates()
		// Walk both dimensions together from large to small.
		n := o.Candidates
		for i := 0; i < n; i++ {
			gi := len(g) - 1 - i*maxInt(len(g)/n, 1)
			wi := len(w) - 1 - i*maxInt(len(w)/n, 1)
			if gi < 0 || wi < 0 {
				break
			}
			out = append(out, hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: g[gi], WeightBytes: w[wi]})
		}
	default: // RandomSearch
		for i := 0; i < o.Candidates; i++ {
			ms := core.MemSearch{Search: true, Kind: o.Kind, Global: o.Global, Weight: o.Weight}
			out = append(out, core.RandomMemConfig(rng, ms))
		}
	}
	return out
}
