package search

import (
	"fmt"
	"math"
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
// up GA discoveries as restart material. Scouts follow the GA cost
// convention (core.InfeasibleCost sentinel, Formula 1/2 objective) so their
// genomes are directly comparable in tournaments.

func newScout(ev *eval.Evaluator, opt Options, kind ScoutKind, runSeed int64, ringIdx int) (island, error) {
	switch kind {
	case ScoutSA:
		return newSAScout(ev, opt, runSeed, ringIdx), nil
	case ScoutGreedy:
		return newGreedyScout(ev, opt, runSeed, ringIdx), nil
	}
	return nil, fmt.Errorf("search: unknown scout kind %v", kind)
}

// scoutCost scores a scout genome with the GA's cost function (finite
// infeasible sentinel included, so costs serialize and compare cleanly).
func scoutCost(obj eval.Objective, g *core.Genome) float64 {
	if !g.Res.Feasible() {
		return core.InfeasibleCost + float64(len(g.Res.Infeasible))
	}
	c := g.Res.MetricValue(obj.Metric)
	if obj.Alpha > 0 {
		return float64(g.Mem.TotalBytes()) + obj.Alpha*c
	}
	return c
}

// saScout anneals one simulated-annealing chain over the shared evaluator,
// paced so one orchestrator round consumes as many samples as a GA island's
// round (MigrateEvery × population). Each sample is baselines.AnnealStep —
// the exact move set and acceptance rule of the SA baseline, with its
// default geometric relative-temperature cooling — on the scout's own RNG
// stream.
type saScout struct {
	ev      *eval.Evaluator
	obj     eval.Objective
	ms      core.MemSearch
	ringIdx int

	budget  int // total sample budget (the per-island Core.MaxSamples)
	perStep int // samples per optimizer-step equivalent (population size)

	seed int64
	src  *core.Source
	rng  *rand.Rand

	cur, bst *core.Genome
	temp     float64
	cooling  float64
	samples  int
}

func newSAScout(ev *eval.Evaluator, opt Options, runSeed int64, ringIdx int) *saScout {
	s := &saScout{
		ev:      ev,
		obj:     opt.Core.Objective,
		ms:      opt.Core.Mem,
		ringIdx: ringIdx,
		budget:  opt.Core.MaxSamples,
		perStep: opt.Core.Population,
		seed:    core.ChildSeedStream(runSeed, core.StreamScouts, ringIdx),
		temp:    baselines.DefaultSAInitialTemp,
	}
	s.src = core.NewSource(s.seed)
	s.rng = rand.New(s.src)
	s.cooling = math.Pow(baselines.DefaultSAFinalTemp/baselines.DefaultSAInitialTemp,
		1/math.Max(float64(s.budget-1), 1))
	return s
}

// evaluate repairs and scores a genome in place on the scout's RNG.
func (s *saScout) evaluate(g *core.Genome) {
	g.P, g.Res = core.RepairInSitu(s.ev, s.rng, g.P, g.Mem)
	g.Cost = scoutCost(s.obj, g)
	s.samples++
}

func (s *saScout) done() bool { return s.samples >= s.budget }

func (s *saScout) step(gens int) bool {
	if s.done() {
		return false
	}
	n := gens * s.perStep
	for i := 0; i < n && s.samples < s.budget; i++ {
		s.anneal1()
	}
	return true
}

// anneal1 advances the chain by one sample.
func (s *saScout) anneal1() {
	if s.cur == nil {
		s.cur = &core.Genome{
			P:   core.RandomPartition(s.ev.Graph(), s.rng, core.PNewInit),
			Mem: core.RandomMemConfig(s.rng, s.ms),
		}
		s.evaluate(s.cur)
		s.bst = s.cur.Clone()
		return
	}
	s.cur = baselines.AnnealStep(s.ev.Graph(), s.rng, s.ms, s.cur, s.temp, s.evaluate)
	if s.cur.Cost < s.bst.Cost {
		s.bst = s.cur.Clone()
	}
	s.temp *= s.cooling
}

// emigrants ships the chain's best, then its current state. No RNG draws:
// a chain has no population to sample from.
func (s *saScout) emigrants(n int) []*core.Genome {
	if s.bst == nil {
		return nil
	}
	out := []*core.Genome{s.bst.Clone()}
	if n > 1 && s.cur != nil {
		out = append(out, s.cur.Clone())
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
	for _, m := range gs {
		if s.cur == nil || m.Cost < s.cur.Cost {
			s.cur = m.Clone()
			if s.cur.Res == nil {
				s.cur.Res = s.ev.Partition(s.cur.P, s.cur.Mem)
			}
			if s.bst == nil || s.cur.Cost < s.bst.Cost {
				s.bst = s.cur.Clone()
			}
		}
	}
}

// best only reports feasible solutions, mirroring the GA contract.
func (s *saScout) best() *core.Genome {
	if s.bst == nil || s.bst.Cost >= core.InfeasibleCost {
		return nil
	}
	return s.bst
}

func (s *saScout) stats() core.Stats { return core.Stats{Samples: s.samples} }

func (s *saScout) snapshot() serialize.IslandJSON {
	return serialize.IslandJSON{
		Kind:    "sa",
		RNG:     serialize.RNGStateJSON{Seed: s.seed, State: s.src.State()},
		Samples: s.samples,
		Temp:    s.temp,
		Cur:     EncodeGenome(s.cur, false),
		Best:    EncodeGenome(s.bst, true),
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
	var err error
	if s.cur, err = DecodeGenome(s.ev.Graph(), j.Cur, false); err != nil {
		return fmt.Errorf("search: island %d cur: %w", s.ringIdx, err)
	}
	if s.bst, err = DecodeGenome(s.ev.Graph(), j.Best, true); err != nil {
		return fmt.Errorf("search: island %d best: %w", s.ringIdx, err)
	}
	s.samples = j.Samples
	s.temp = j.Temp
	s.src = core.NewSource(int64(j.RNG.State))
	s.rng = rand.New(s.src)
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
		c := r.Candidates()
		return c[len(c)/2]
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
	g.bst = &core.Genome{P: p, Mem: g.mem, Res: res}
	g.bst.Cost = scoutCost(g.obj, g.bst)
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
	if g.bst == nil || g.bst.Cost >= core.InfeasibleCost {
		return nil
	}
	return g.bst
}

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
