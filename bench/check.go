package main

import (
	"fmt"
	"math"
	"slices"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/search"
	"cocco/internal/tiling"
)

// Output checks. The cost model has not been checked against real hardware,
// so these make no accuracy claim: they check that every surface returns
// what the full evaluation engine computes from scratch, and that surfaces
// which promise the same result as an in-process search deliver it bit for
// bit.

// rescore re-evaluates a returned genome with a fresh evaluator and the
// full (non-incremental) engine; the cost must equal the reported one bit
// for bit and the partition must be valid.
func rescore(model string, platform hw.Platform, assign []int, mem hw.MemConfig, obj eval.Objective, cost float64) error {
	g, err := models.Build(model)
	if err != nil {
		return err
	}
	ev, err := eval.New(g, platform, tiling.DefaultConfig())
	if err != nil {
		return err
	}
	p, err := partition.From(g, assign)
	if err != nil {
		return fmt.Errorf("%s: best partition: %w", model, err)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%s: best partition: %w", model, err)
	}
	got, res := ev.Cost(p, mem, obj)
	if !res.Feasible() {
		return fmt.Errorf("%s: best genome is infeasible on rescoring", model)
	}
	if math.Float64bits(got) != math.Float64bits(cost) {
		return fmt.Errorf("%s: rescored cost %v, reported %v", model, got, cost)
	}
	return nil
}

// rescoreGenome is rescore for a genome on the default platform.
func rescoreGenome(model string, g *core.Genome, obj eval.Objective) error {
	if g == nil {
		return fmt.Errorf("%s: no best genome", model)
	}
	return rescore(model, hw.DefaultPlatform(), g.P.Assignment(), g.Mem, obj, g.Cost)
}

// sameGenome reports where two best genomes differ.
func sameGenome(want, got *core.Genome) error {
	switch {
	case want == nil || got == nil:
		if want != got {
			return fmt.Errorf("one side has no best genome")
		}
	case math.Float64bits(want.Cost) != math.Float64bits(got.Cost):
		return fmt.Errorf("best cost %v, want %v", got.Cost, want.Cost)
	case want.Mem != got.Mem:
		return fmt.Errorf("best memory %v, want %v", got.Mem, want.Mem)
	case !slices.Equal(want.P.Assignment(), got.P.Assignment()):
		return fmt.Errorf("best partitions differ")
	}
	return nil
}

// sameSearch reports where two searches' results differ.
func sameSearch(want *core.Genome, wantSt *search.Stats, got *core.Genome, gotSt *search.Stats) error {
	if err := sameGenome(want, got); err != nil {
		return err
	}
	w, g := *wantSt, *gotSt
	if w.Samples != g.Samples || w.FeasibleSamples != g.FeasibleSamples || w.MemoHits != g.MemoHits ||
		w.Rounds != g.Rounds || w.Migrations != g.Migrations || w.BestIsland != g.BestIsland {
		return fmt.Errorf("stats %+v, want %+v", g, w)
	}
	return nil
}
