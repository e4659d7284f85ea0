package search

import (
	"fmt"
	"math/rand"

	"cocco/internal/baselines"
	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/serialize"
)

// Scout islands run non-GA searches inside the migration ring: they inject
// structurally different solutions into the GA populations (the paper's
// §4.3 benefit 4, continuously instead of only at initialization) and pick
// up GA discoveries as restart material. Scouts score with the GA's
// eval.Objective, so their genomes are directly comparable in tournaments.

func newScout(ev *eval.Evaluator, opt Options, kind ScoutKind, runSeed int64, ringIdx int) (island, error) {
	switch kind {
	case ScoutSA:
		return newSAScout(ev, opt, runSeed, ringIdx), nil
	case ScoutGreedy:
		return newGreedyScout(ev, opt, runSeed, ringIdx), nil
	}
	return nil, fmt.Errorf("search: unknown scout kind %v", kind)
}

// saScout steps one baselines.Chain, the SA baseline's own chain, on the
// scout's stream, paced so one orchestrator round consumes as many samples
// as a GA island's round (MigrateEvery × population). The chain holds the
// search state; the scout adds the pacing, migration and snapshots.
type saScout struct {
	ev      *eval.Evaluator
	ringIdx int
	perStep int // samples per optimizer-step equivalent (population size)

	seed  int64
	src   *core.Source // the chain's stream, restored in place
	chain *baselines.Chain
}

func newSAScout(ev *eval.Evaluator, opt Options, runSeed int64, ringIdx int) *saScout {
	s := &saScout{
		ev:      ev,
		ringIdx: ringIdx,
		perStep: opt.Core.Population,
		seed:    core.ChildSeedStream(runSeed, core.StreamScouts, ringIdx),
	}
	s.src = core.NewSource(s.seed)
	s.chain = baselines.NewChain(ev, opt.Core.Objective, opt.Core.Mem, opt.Core.MaxSamples, rand.New(s.src))
	return s
}

func (s *saScout) done() bool { return s.chain.Done() }

func (s *saScout) step(gens int) bool {
	if s.chain.Done() {
		return false
	}
	for i := 0; i < gens*s.perStep && !s.chain.Done(); i++ {
		s.chain.Step()
	}
	return true
}

// emigrants ships the chain's best, then its current state. No RNG draws:
// a chain has no population to sample from.
func (s *saScout) emigrants(n int) []*core.Genome {
	c := s.chain
	if c.Best == nil {
		return nil
	}
	out := []*core.Genome{c.Best.Clone()}
	if n > 1 && c.Cur != nil {
		out = append(out, c.Cur.Clone())
	}
	return out
}

// immigrate adopts the best incoming genome as the chain's current state
// when it improves on it — a deterministic restart. Migrants cloned from a
// checkpoint-restored population arrive without their evaluation result
// (population entries are serialized cost-only); an adopted one is
// re-evaluated so the chain's best always carries a result — evaluation is
// a pure function of (partition, mem), so the recompute is bit-identical
// to the result the migrant originally had and no RNG is consumed.
func (s *saScout) immigrate(gs []*core.Genome) {
	c := s.chain
	for _, m := range gs {
		if c.Cur == nil || m.Cost < c.Cur.Cost {
			c.Cur = m.Clone()
			if c.Cur.Res == nil {
				c.Cur.Res = s.ev.Partition(c.Cur.P, c.Cur.Mem)
			}
			if c.Best == nil || c.Cur.Cost < c.Best.Cost {
				c.Best = c.Cur.Clone()
			}
		}
	}
}

// best only reports feasible solutions, mirroring the GA contract.
func (s *saScout) best() *core.Genome {
	if s.chain.Best == nil || s.chain.Best.Cost >= eval.InfeasibleCost {
		return nil
	}
	return s.chain.Best
}

func (s *saScout) stats() core.Stats {
	return core.Stats{Samples: s.chain.Samples, FeasibleSamples: s.chain.Feasible}
}

func (s *saScout) snapshot() serialize.IslandJSON {
	c := s.chain
	return serialize.IslandJSON{
		Kind:            "sa",
		RNG:             serialize.RNGStateJSON{Seed: s.seed, State: s.src.State()},
		Samples:         c.Samples,
		FeasibleSamples: c.Feasible,
		Temp:            c.Temp,
		Cur:             EncodeGenome(c.Cur, false),
		Best:            EncodeGenome(c.Best, true),
	}
}

func (s *saScout) restore(j serialize.IslandJSON) error {
	if j.Kind != "sa" {
		return fmt.Errorf("search: island %d: checkpoint kind %q, want sa", s.ringIdx, j.Kind)
	}
	if j.RNG.Seed != s.seed {
		return fmt.Errorf("search: island %d: scout seed mismatch", s.ringIdx)
	}
	// A chain's first sample sets both cur and best, and every later step
	// reads both.
	if (j.Cur == nil) != (j.Best == nil) || (j.Cur == nil && j.Samples != 0) {
		return fmt.Errorf("search: island %d: sa snapshot needs cur and best together, or neither before its first sample", s.ringIdx)
	}
	c := s.chain
	var err error
	if c.Cur, err = DecodeGenome(s.ev.Graph(), j.Cur, false); err != nil {
		return fmt.Errorf("search: island %d cur: %w", s.ringIdx, err)
	}
	if c.Best, err = DecodeGenome(s.ev.Graph(), j.Best, true); err != nil {
		return fmt.Errorf("search: island %d best: %w", s.ringIdx, err)
	}
	// A snapshot from a build that did not count Feasible restores 0.
	c.Samples, c.Feasible = j.Samples, j.FeasibleSamples
	c.Temp = j.Temp
	s.src.Seed(int64(j.RNG.State))
	return nil
}

// greedyScout runs the Halide-style greedy merger once, then spends the
// rest of the run exporting its solution into the ring every barrier.
type greedyScout struct {
	ev      *eval.Evaluator
	obj     eval.Objective
	mem     hw.MemConfig
	ringIdx int

	started bool
	samples int
	bst     *core.Genome
}

func newGreedyScout(ev *eval.Evaluator, opt Options, runSeed int64, ringIdx int) *greedyScout {
	_ = runSeed // the greedy merger is deterministic; no stream is consumed
	return &greedyScout{
		ev:      ev,
		obj:     opt.Core.Objective,
		mem:     greedyMem(opt.Core.Mem),
		ringIdx: ringIdx,
	}
}

// greedyMem picks the fixed memory configuration the merger optimizes for:
// the configured one, or the middle capacity candidates of a searchable
// range (a deterministic, central anchor).
func greedyMem(ms core.MemSearch) hw.MemConfig {
	if !ms.Search {
		return ms.Fixed
	}
	mid := func(r hw.MemRange) int64 {
		return r.Min + int64(r.Count()/2)*r.Step
	}
	m := hw.MemConfig{Kind: ms.Kind, GlobalBytes: mid(ms.Global)}
	if ms.Kind == hw.SeparateBuffer {
		m.WeightBytes = mid(ms.Weight)
	}
	return m
}

func (g *greedyScout) done() bool { return g.started }

func (g *greedyScout) step(int) bool {
	if g.started {
		return false
	}
	g.started = true
	p, samples := baselines.Greedy(g.ev, g.mem, g.obj.Metric)
	g.samples = samples
	res := g.ev.Partition(p, g.mem)
	g.bst = &core.Genome{P: p, Mem: g.mem, Res: res, Cost: g.obj.Cost(res, g.mem)}
	return true
}

func (g *greedyScout) emigrants(int) []*core.Genome {
	if g.bst == nil {
		return nil
	}
	return []*core.Genome{g.bst.Clone()}
}

func (g *greedyScout) immigrate([]*core.Genome) {}

func (g *greedyScout) best() *core.Genome {
	if g.bst == nil || g.bst.Cost >= eval.InfeasibleCost {
		return nil
	}
	return g.bst
}

// stats reports the merger's samples: subgraph costings, not genomes, so
// none of them counts as a feasible genome.
func (g *greedyScout) stats() core.Stats { return core.Stats{Samples: g.samples} }

func (g *greedyScout) snapshot() serialize.IslandJSON {
	return serialize.IslandJSON{
		Kind:    "greedy",
		Started: g.started,
		Samples: g.samples,
		Best:    EncodeGenome(g.bst, true),
	}
}

func (g *greedyScout) restore(j serialize.IslandJSON) error {
	if j.Kind != "greedy" {
		return fmt.Errorf("search: island %d: checkpoint kind %q, want greedy", g.ringIdx, j.Kind)
	}
	var err error
	if g.bst, err = DecodeGenome(g.ev.Graph(), j.Best, true); err != nil {
		return fmt.Errorf("search: island %d best: %w", g.ringIdx, err)
	}
	g.started = j.Started
	g.samples = j.Samples
	return nil
}
