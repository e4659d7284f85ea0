package baselines

import (
	"math"
	"math/rand"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/graph"
)

// SAOptions configures the simulated-annealing co-optimizer (§4.2.4), which
// uses Cocco's mutation operators as its neighborhood moves. It anneals one
// chain of MaxSamples samples (default 50,000) from Seed, cooling
// geometrically from DefaultSAInitialTemp to DefaultSAFinalTemp.
type SAOptions struct {
	Seed       int64
	MaxSamples int
	Objective  eval.Objective
	Mem        core.MemSearch
	Trace      func(core.TracePoint)
}

// DefaultSAInitialTemp and DefaultSAFinalTemp bound the geometric cooling
// schedule. The temperature is a fraction of the current cost, so the
// schedule is scale-free across metrics. Exported so the orchestrator's SA
// scout anneals with the same schedule as this baseline.
const (
	DefaultSAInitialTemp = 0.10
	DefaultSAFinalTemp   = 0.0005
)

// SA runs simulated annealing and returns the best genome found, reporting
// every evaluation to opt.Trace (if non-nil) with 1-based sample indices.
func SA(ev *eval.Evaluator, opt SAOptions) (*core.Genome, error) {
	budget := opt.MaxSamples
	if budget <= 0 {
		budget = 50_000
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	cost := func(g *core.Genome) float64 {
		if !g.Res.Feasible() {
			return math.Inf(1)
		}
		c := g.Res.MetricValue(opt.Objective.Metric)
		if opt.Objective.Alpha > 0 {
			return float64(g.Mem.TotalBytes()) + opt.Objective.Alpha*c
		}
		return c
	}

	evaluate := func(gnm *core.Genome, sample int) {
		gnm.P, gnm.Res = core.RepairInSitu(ev, rng, gnm.P, gnm.Mem)
		gnm.Cost = cost(gnm)
		if opt.Trace != nil {
			opt.Trace(core.TracePoint{
				Sample:   sample,
				Cost:     gnm.Cost,
				Metric:   gnm.Res.MetricValue(opt.Objective.Metric),
				Mem:      gnm.Mem,
				Feasible: gnm.Res.Feasible(),
			})
		}
	}

	cur := &core.Genome{
		P:   core.RandomPartition(ev.Graph(), rng, core.PNewInit),
		Mem: core.RandomMemConfig(rng, opt.Mem),
	}
	evaluate(cur, 1)
	best := cur.Clone()

	cooling := math.Pow(DefaultSAFinalTemp/DefaultSAInitialTemp, 1/float64(maxInt(budget-1, 1)))
	temp := DefaultSAInitialTemp
	for s := 2; s <= budget; s++ {
		cur = AnnealStep(ev.Graph(), rng, opt.Mem, cur, temp,
			func(g *core.Genome) { evaluate(g, s) })
		if cur.Cost < best.Cost {
			best = cur.Clone()
		}
		temp *= cooling
	}
	if math.IsInf(best.Cost, 1) {
		return best, errInfeasibleSA
	}
	return best, nil
}

// AnnealStep advances one simulated-annealing chain by one sample: it draws
// one random move from cur (a partition mutation, or mutation-DSE when the
// hardware is searchable), evaluates the candidate through the provided
// closure, and returns the accepted state — the candidate on improvement or
// by the Metropolis rule on the relative cost delta at temp, cur otherwise.
// Infeasible candidates are never accepted, whichever sentinel the caller's
// cost function uses (math.Inf here, core.InfeasibleCost in the
// orchestrator's scout — the finite sentinel family is itself ≥
// core.InfeasibleCost). Shared by SA and the island orchestrator's SA
// scout so the two cannot drift apart.
func AnnealStep(g *graph.Graph, rng *rand.Rand, ms core.MemSearch, cur *core.Genome, temp float64, evaluate func(*core.Genome)) *core.Genome {
	cand := cur.Clone()
	moves := 3
	if ms.Search {
		moves = 4
	}
	if rng.Intn(moves) == 3 {
		cand.Mem = core.MutateMemConfig(rng, ms, cand.Mem)
	} else {
		cand.P = core.ApplyRandomMutation(g, rng, cand.P)
	}
	evaluate(cand)

	switch {
	case cand.Cost >= core.InfeasibleCost:
		// never accept infeasible
	case cand.Cost <= cur.Cost:
		return cand
	default:
		rel := (cand.Cost - cur.Cost) / cur.Cost
		if rng.Float64() < math.Exp(-rel/temp) {
			return cand
		}
	}
	return cur
}

var errInfeasibleSA = errSA("baselines: SA found no feasible solution")

type errSA string

func (e errSA) Error() string { return string(e) }
