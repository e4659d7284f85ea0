package core

import (
	"fmt"
	"math/rand"

	"cocco/internal/eval"
)

// OptimizerState is the complete checkpointable state of a paused Optimizer:
// everything Step reads besides the immutable options and the evaluator.
// Restoring it into a fresh Optimizer (NewOptimizerFromState) and continuing
// is bit-identical to never having paused — the same trajectory, best
// genome, and Stats, MemoHits aside — because
//
//   - the master RNG's whole state is the word State — see Source;
//   - per-sample repair RNGs are pure functions of (Seed, sample index);
//   - population and best genomes only feed the search through their
//     partition assignments, memory configs, and costs, all captured here.
//
// Cost handles, evaluator-cache contents, and the genome memo are
// deliberately absent: all three are pure caches whose presence changes
// wall-clock time, never results. A restored optimizer starts with an empty
// memo, so its Stats.MemoHits can only fall short of an uninterrupted run's.
type OptimizerState struct {
	// State is the master RNG state. Seed always equals the option's run
	// seed; it is stored so restores can cross-check.
	Seed  int64
	State uint64
	// Started records whether the initial population has been built.
	Started bool
	// Samples and Generations are the committed progress counters.
	Samples     int
	Generations int
	// Stats is the statistics snapshot (Samples inside it is only filled by
	// Finish; the live counter is the Samples field above).
	Stats Stats
	// Population is the current population in selectNext order (nil before
	// the first Step). Result pointers are not needed to continue a run and
	// may be nil on restored genomes.
	Population []*Genome
	// Best is the best feasible genome so far, with its Result attached.
	Best *Genome
}

// ExportState snapshots the optimizer. The snapshot shares genomes with the
// live optimizer — both sides treat committed genomes as immutable, so the
// caller must serialize (or deep-copy) the snapshot before stepping again
// only if it needs isolation.
func (o *Optimizer) ExportState() *OptimizerState {
	st := &OptimizerState{
		Seed:        o.opt.Seed,
		State:       o.src.State(),
		Started:     o.started,
		Samples:     o.samples,
		Generations: o.gen,
		Stats:       o.stats,
		Population:  append([]*Genome(nil), o.pop...),
		Best:        o.best,
	}
	st.Stats.BestHistory = append([]float64(nil), o.stats.BestHistory...)
	return st
}

// NewOptimizerFromState rebuilds a paused optimizer. opt must be the exact
// options of the run that produced the state (the checkpoint layer pins a
// config fingerprint for this); ev must evaluate the same graph on the same
// platform.
func NewOptimizerFromState(ev *eval.Evaluator, opt Options, st *OptimizerState) (*Optimizer, error) {
	o, err := NewOptimizer(ev, opt)
	if err != nil {
		return nil, err
	}
	if st.Seed != o.opt.Seed {
		return nil, fmt.Errorf("core: state seed %d does not match options seed %d", st.Seed, o.opt.Seed)
	}
	// Every generation draws parents from the population, so a started run
	// always has one.
	if st.Started && len(st.Population) == 0 {
		return nil, fmt.Errorf("core: started state has an empty population")
	}
	o.src = NewSource(int64(st.State))
	o.rng = rand.New(o.src)
	o.started = st.Started
	o.samples = st.Samples
	o.gen = st.Generations
	o.stats = st.Stats
	o.stats.BestHistory = append([]float64(nil), st.Stats.BestHistory...)
	o.pop = append([]*Genome(nil), st.Population...)
	o.best = st.Best
	return o, nil
}
