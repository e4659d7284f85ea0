package baselines

import (
	"errors"
	"math"
	"math/rand"

	"cocco/internal/core"
	"cocco/internal/eval"
)

// SAOptions configures the simulated-annealing co-optimizer (§4.2.4), which
// uses Cocco's mutation operators as its neighborhood moves. It anneals one
// Chain of MaxSamples samples (default 50,000) from Seed.
type SAOptions struct {
	Seed       int64
	MaxSamples int
	Objective  eval.Objective
	Mem        core.MemSearch
	Trace      func(core.TracePoint)
}

// saInitialTemp and saFinalTemp bound the geometric cooling schedule. The
// temperature is a fraction of the current cost, so the schedule is
// scale-free across metrics.
const (
	saInitialTemp = 0.10
	saFinalTemp   = 0.0005
)

// SA runs simulated annealing and returns the best genome found, reporting
// every evaluation to opt.Trace (if non-nil) with 1-based sample indices.
func SA(ev *eval.Evaluator, opt SAOptions) (*core.Genome, error) {
	budget := opt.MaxSamples
	if budget <= 0 {
		budget = 50_000
	}
	c := NewChain(ev, opt.Objective, opt.Mem, budget, rand.New(rand.NewSource(opt.Seed)))
	c.trace = opt.Trace
	for !c.Done() {
		c.Step()
	}
	if !c.Best.Res.Feasible() {
		return c.Best, errors.New("baselines: SA found no feasible solution")
	}
	return c.Best, nil
}

// Chain is one simulated-annealing chain: the SA baseline runs one to its
// budget, and the island orchestrator's SA scout steps one between
// migration barriers. Its exported fields are its whole state besides its
// random stream, so the scout can adopt migrants and checkpoint it.
type Chain struct {
	// Cur is the chain's current genome (nil before its first sample) and
	// Best the cheapest it has held.
	Cur, Best *core.Genome
	// Temp is the temperature, a fraction of Cur's cost.
	Temp float64
	// Samples counts the genomes evaluated, and Feasible those of them
	// that fit after repair.
	Samples, Feasible int

	ev      *eval.Evaluator
	obj     eval.Objective
	ms      core.MemSearch
	rng     *rand.Rand
	budget  int
	cooling float64 // cools from saInitialTemp to saFinalTemp over budget-1 moves
	trace   func(core.TracePoint)
}

// NewChain returns a chain of budget samples scored with obj over the
// hardware space ms, drawing every move and repair from rng.
func NewChain(ev *eval.Evaluator, obj eval.Objective, ms core.MemSearch, budget int, rng *rand.Rand) *Chain {
	return &Chain{
		Temp: saInitialTemp,
		ev:   ev, obj: obj, ms: ms, rng: rng, budget: budget,
		cooling: math.Pow(saFinalTemp/saInitialTemp, 1/float64(maxInt(budget-1, 1))),
	}
}

// Done reports whether the chain has spent its budget.
func (c *Chain) Done() bool { return c.Samples >= c.budget }

// Step evaluates one sample. Without a current genome it draws a random
// one. Otherwise it draws one move from Cur (a partition mutation, or
// mutation-DSE when the hardware is searchable), accepts the candidate on
// improvement or by the Metropolis rule on the relative cost delta at
// Temp, and cools. An infeasible candidate is never accepted.
func (c *Chain) Step() {
	if c.Cur == nil {
		c.Cur = &core.Genome{
			P:   core.RandomPartition(c.ev.Graph(), c.rng, core.PNewInit),
			Mem: core.RandomMemConfig(c.rng, c.ms),
		}
		c.evaluate(c.Cur)
		c.Best = c.Cur.Clone()
		return
	}
	cand := c.Cur.Clone()
	moves := 3
	if c.ms.Search {
		moves = 4
	}
	if c.rng.Intn(moves) == 3 {
		cand.Mem = core.MutateMemConfig(c.rng, c.ms, cand.Mem)
	} else {
		cand.P = core.ApplyRandomMutation(c.ev.Graph(), c.rng, cand.P)
	}
	c.evaluate(cand)
	switch {
	case !cand.Res.Feasible():
	case cand.Cost <= c.Cur.Cost:
		c.Cur = cand
	default:
		rel := (cand.Cost - c.Cur.Cost) / c.Cur.Cost
		if c.rng.Float64() < math.Exp(-rel/c.Temp) {
			c.Cur = cand
		}
	}
	if c.Cur.Cost < c.Best.Cost {
		c.Best = c.Cur.Clone()
	}
	c.Temp *= c.cooling
}

// evaluate repairs and scores g in place on the chain's stream.
func (c *Chain) evaluate(g *core.Genome) {
	g.P, g.Res = core.RepairInSitu(c.ev, c.rng, g.P, g.Mem)
	g.Cost = c.obj.Cost(g.Res, g.Mem)
	c.Samples++
	if g.Res.Feasible() {
		c.Feasible++
	}
	if c.trace != nil {
		c.trace(core.TracePoint{
			Sample:   c.Samples,
			Cost:     g.Cost,
			Metric:   g.Res.MetricValue(c.obj.Metric),
			Mem:      g.Mem,
			Feasible: g.Res.Feasible(),
		})
	}
}
