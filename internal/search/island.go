package search

import (
	"fmt"
	"math/rand"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/serialize"
)

// gaIsland wraps one core.Optimizer plus its migration RNG stream. All
// search randomness stays on the optimizer's own master/child streams; the
// migration stream only ever selects emigrants, so an island's trajectory
// between barriers is exactly a core.Run prefix.
type gaIsland struct {
	ev      *eval.Evaluator
	iopt    core.Options
	ringIdx int
	o       *core.Optimizer

	migSeed int64
	migSrc  *core.Source
	migRNG  *rand.Rand
}

func newGAIsland(ev *eval.Evaluator, iopt core.Options, runSeed int64, ringIdx int) (*gaIsland, error) {
	o, err := core.NewOptimizer(ev, iopt)
	if err != nil {
		return nil, err
	}
	g := &gaIsland{
		ev:      ev,
		iopt:    iopt,
		ringIdx: ringIdx,
		o:       o,
		migSeed: core.ChildSeedStream(runSeed, core.StreamMigration, ringIdx),
	}
	g.migSrc = core.NewSource(g.migSeed)
	g.migRNG = rand.New(g.migSrc)
	return g, nil
}

func (g *gaIsland) step(gens int) bool {
	if g.o.Done() {
		return false
	}
	for k := 0; k < gens; k++ {
		if !g.o.Step() {
			break
		}
	}
	return true
}

// emigrants sends the island's current elite plus n-1 uniform draws from the
// rest of the population, as clones — committed genomes are immutable, so
// clones only decouple the assignment arrays.
func (g *gaIsland) emigrants(n int) []*core.Genome {
	pop := g.o.Population()
	if len(pop) == 0 {
		return nil
	}
	if n > len(pop) {
		n = len(pop)
	}
	out := make([]*core.Genome, 0, n)
	out = append(out, pop[0].Clone())
	for j := 1; j < n; j++ {
		out = append(out, pop[1+g.migRNG.Intn(len(pop)-1)].Clone())
	}
	return out
}

// immigrate replaces the island's worst population entries (the tail of the
// cost-sorted population), never the elite slot. Immigrants enter the
// parent pool immediately; they only become the island's best once one of
// their descendants is scored.
func (g *gaIsland) immigrate(gs []*core.Genome) {
	pop := g.o.Population()
	for j, m := range gs {
		idx := len(pop) - 1 - j
		if idx <= 0 {
			break
		}
		pop[idx] = m
	}
}

func (g *gaIsland) done() bool { return g.o.Done() }

func (g *gaIsland) best() *core.Genome { return g.o.Best() }

func (g *gaIsland) stats() core.Stats { return g.o.StatsSnapshot() }

func (g *gaIsland) snapshot() serialize.IslandJSON {
	st := g.o.ExportState()
	j := serialize.IslandJSON{
		Kind:            "ga",
		RNG:             serialize.RNGStateJSON{Seed: st.Seed, State: st.State},
		Migration:       serialize.RNGStateJSON{Seed: g.migSeed, State: g.migSrc.State()},
		Started:         st.Started,
		Samples:         st.Samples,
		Generations:     st.Generations,
		FeasibleSamples: st.Stats.FeasibleSamples,
		MemoHits:        st.Stats.MemoHits,
		BestHistory:     st.Stats.BestHistory,
		Best:            EncodeGenome(st.Best, true),
	}
	for _, m := range st.Population {
		j.Population = append(j.Population, *EncodeGenome(m, false))
	}
	return j
}

func (g *gaIsland) restore(j serialize.IslandJSON) error {
	if j.Kind != "ga" {
		return fmt.Errorf("search: island %d: checkpoint kind %q, want ga", g.ringIdx, j.Kind)
	}
	if j.Migration.Seed != g.migSeed {
		return fmt.Errorf("search: island %d: migration seed mismatch", g.ringIdx)
	}
	gr := g.ev.Graph()
	st := &core.OptimizerState{
		Seed:        j.RNG.Seed,
		State:       j.RNG.State,
		Started:     j.Started,
		Samples:     j.Samples,
		Generations: j.Generations,
		Stats: core.Stats{
			Generations:     j.Generations,
			FeasibleSamples: j.FeasibleSamples,
			MemoHits:        j.MemoHits,
			BestHistory:     j.BestHistory,
		},
	}
	var err error
	if st.Best, err = DecodeGenome(gr, j.Best, true); err != nil {
		return fmt.Errorf("search: island %d best: %w", g.ringIdx, err)
	}
	for i := range j.Population {
		m, err := DecodeGenome(gr, &j.Population[i], false)
		if err != nil {
			return fmt.Errorf("search: island %d population[%d]: %w", g.ringIdx, i, err)
		}
		st.Population = append(st.Population, m)
	}
	if g.o, err = core.NewOptimizerFromState(g.ev, g.iopt, st); err != nil {
		return fmt.Errorf("search: island %d: %w", g.ringIdx, err)
	}
	g.migSrc = core.NewSource(int64(j.Migration.State))
	g.migRNG = rand.New(g.migSrc)
	return nil
}
