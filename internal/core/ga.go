package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/partition"
)

// Stats summarizes a completed run.
type Stats struct {
	// Samples is the number of genome evaluations performed.
	Samples int
	// Generations is the number of completed generations.
	Generations int
	// FeasibleSamples counts genomes feasible after in-situ repair.
	FeasibleSamples int
	// MemoHits counts samples served from the genome memo (duplicate
	// candidates that skipped repair and evaluation entirely).
	MemoHits int
	// BestHistory records the best-so-far cost at the end of each
	// generation.
	BestHistory []float64
}

// Optimizer runs the Cocco genetic search over one evaluator.
type Optimizer struct {
	ev  *eval.Evaluator
	opt Options
	src *Source
	rng *rand.Rand

	started bool
	pop     []*Genome
	best    *Genome
	samples int
	gen     int
	stats   Stats
	memo    *genomeMemo // nil when Options.DisableGenomeMemo

	// evaluateBatch scratch, reused across generations.
	batchHash []uint64
	batchDup  []int
}

// NewOptimizer validates options and prepares a run.
func NewOptimizer(ev *eval.Evaluator, opt Options) (*Optimizer, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.WithDefaults()
	// The master stream's state is one word, so the optimizer state is
	// checkpointable as (seed, state).
	src := NewSource(opt.Seed)
	o := &Optimizer{ev: ev, opt: opt, src: src, rng: rand.New(src)}
	if !opt.DisableGenomeMemo {
		o.memo = newGenomeMemo()
	}
	return o, nil
}

// Run executes the full search and returns the best feasible genome found.
func Run(ev *eval.Evaluator, opt Options) (*Genome, *Stats, error) {
	o, err := NewOptimizer(ev, opt)
	if err != nil {
		return nil, nil, err
	}
	return o.Run()
}

// Run executes the search.
func (o *Optimizer) Run() (*Genome, *Stats, error) {
	for o.Step() {
	}
	return o.Finish()
}

// Step advances the search by one unit — the first call builds and scores
// the initial population, every later call runs one full generation — and
// reports whether sample budget remains. Driving Step in a loop is exactly
// Run; the island orchestrator interleaves Steps with migration instead.
func (o *Optimizer) Step() bool {
	if !o.started {
		o.started = true
		o.pop = o.initialPopulation()
		return o.samples < o.opt.MaxSamples
	}
	if o.samples >= o.opt.MaxSamples {
		return false
	}
	o.gen++
	offspring := o.makeOffspring(o.pop)
	o.pop = o.selectNext(append(o.pop, offspring...))
	o.stats.BestHistory = append(o.stats.BestHistory, o.bestCost())
	o.stats.Generations = o.gen
	return o.samples < o.opt.MaxSamples
}

// Done reports whether the sample budget is exhausted.
func (o *Optimizer) Done() bool { return o.started && o.samples >= o.opt.MaxSamples }

// Finish closes out the run and returns the best feasible genome found.
func (o *Optimizer) Finish() (*Genome, *Stats, error) {
	o.stats.Samples = o.samples
	if o.best == nil {
		return nil, &o.stats, fmt.Errorf("core: no feasible genome found in %d samples", o.samples)
	}
	return o.best, &o.stats, nil
}

// Population exposes the current population, sorted ascending by cost as
// selectNext left it (nil before the first Step). The island orchestrator
// may replace entries between Steps — migration — but must never mutate a
// genome in place: committed genomes share partitions with the memo and the
// best snapshot.
func (o *Optimizer) Population() []*Genome { return o.pop }

// Best returns the best feasible genome committed so far (nil if none).
func (o *Optimizer) Best() *Genome { return o.best }

// SamplesUsed reports how many genome evaluations have been committed.
func (o *Optimizer) SamplesUsed() int { return o.samples }

// StatsSnapshot returns the statistics as Finish would report them at this
// point, without ending the run (BestHistory is copied).
func (o *Optimizer) StatsSnapshot() Stats {
	st := o.stats
	st.Samples = o.samples
	st.BestHistory = append([]float64(nil), o.stats.BestHistory...)
	return st
}

func (o *Optimizer) bestCost() float64 {
	if o.best == nil {
		return eval.InfeasibleCost
	}
	return o.best.Cost
}

// initialPopulation seeds from Options.Init (if any) and fills with random
// genomes (§4.4.1). Candidates are drawn serially from the master RNG and
// scored by the parallel evaluation engine.
func (o *Optimizer) initialPopulation() []*Genome {
	cands := make([]candidate, 0, o.opt.Population)
	for _, p := range o.opt.Init {
		if len(cands) >= o.opt.Population || o.samples+len(cands) >= o.opt.MaxSamples {
			break
		}
		cands = append(cands, candidate{p: p.Clone(), mem: RandomMemConfig(o.rng, o.opt.Mem)})
	}
	for len(cands) < o.opt.Population && o.samples+len(cands) < o.opt.MaxSamples {
		p := RandomPartition(o.ev.Graph(), o.rng, PNewInit)
		cands = append(cands, candidate{p: p, mem: RandomMemConfig(o.rng, o.opt.Mem)})
	}
	return o.evaluateBatch(cands)
}

// makeOffspring produces one generation of offspring via crossover and the
// customized mutations. All RNG draws that shape the candidates happen
// serially here, on the master RNG; scoring is farmed out afterwards.
func (o *Optimizer) makeOffspring(pop []*Genome) []*Genome {
	cands := make([]candidate, 0, o.opt.Population)
	for len(cands) < o.opt.Population && o.samples+len(cands) < o.opt.MaxSamples {
		var child *Genome
		dad := pop[o.rng.Intn(len(pop))]
		if !o.opt.DisableCrossover && o.rng.Float64() < CrossoverProb {
			mom := pop[o.rng.Intn(len(pop))]
			p := crossoverPartition(o.ev.Graph(), o.rng, dad.P, mom.P)
			child = &Genome{P: p, Mem: crossoverMem(o.opt.Mem, dad.Mem, mom.Mem)}
		} else {
			child = dad.Clone()
		}
		o.mutate(child)
		cands = append(cands, candidate{p: child.P, mem: child.Mem})
	}
	return o.evaluateBatch(cands)
}

// candidate is one genome awaiting evaluation.
type candidate struct {
	p   *partition.Partition
	mem hw.MemConfig
}

// Stream tags name the independent consumers of ChildSeedStream. Every
// consumer folds its tag into the derivation, so two consumers using the
// same (run seed, index) pair still draw from uncorrelated streams.
const (
	// StreamSamples seeds each GA sample's in-situ repair, indexed by the
	// 1-based sample number. Making that randomness a pure function of
	// (seed, sample) is what keeps parallel runs bit-identical: the draws
	// do not depend on execution order.
	StreamSamples uint64 = 0
	// StreamIslands seeds the per-island master RNGs of the orchestrator.
	StreamIslands uint64 = 1
	// StreamMigration drives migrant selection between islands.
	StreamMigration uint64 = 2
	// StreamScouts seeds the SA/greedy scout islands.
	StreamScouts uint64 = 3
)

// ChildSeedStream derives an independent RNG seed for one (stream, index)
// consumer of a run seed. The stream tag is folded in with its own odd
// multiplier before the splitmix64 finalizer, so overlapping indices
// across streams cannot collide in practice
// (TestChildSeedStreamIndependence pins this over the working index range).
func ChildSeedStream(seed int64, stream uint64, index int) int64 {
	return int64(mix64(uint64(seed) ^ stream*0xD1B54A32D192ED03 ^ uint64(index)*0x9E3779B97F4A7C15))
}

// ParallelFor runs fn(i) for every i in [0, n) on up to workers goroutines
// and returns when all calls have finished. fn must be safe to call
// concurrently; iteration order is unspecified, so determinism must come
// from fn writing only to its own index's state.
func ParallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// evaluateBatch is the deterministic parallel evaluation engine: the batch
// is scored on Options.Workers goroutines (each sample repairing with its
// own child RNG) and the results are committed to the optimizer state in
// submission order, so Stats, Trace, elitism, and the best-genome update
// are identical for every worker count.
//
// With the genome memo on, duplicate candidates skip scoring: committed
// duplicates replay the stored genome, and in-batch duplicates of a
// memoizable first occurrence replay its fresh result. Every memo decision
// happens in the serial phases (cheap: partition hashes are cached by the
// operator pipeline, and the memo tables are only mutated in the commit
// loop), so worker count cannot change which samples hit; and only provably
// deterministic results are replayed, so the memo never alters the search
// trajectory either (see memo.go).
func (o *Optimizer) evaluateBatch(cands []candidate) []*Genome {
	scored := make([]*Genome, len(cands))
	if o.memo == nil {
		ParallelFor(len(cands), o.opt.Workers, func(i int) {
			scored[i] = o.score(cands[i], o.samples+i+1)
		})
		for _, g := range scored {
			o.commit(g)
		}
		return scored
	}

	hashes := o.batchHash[:0]
	dupOf := o.batchDup[:0]
	hits := 0

	// Phase 1 (serial): hash candidates (O(1) — the operator pipeline caches
	// the partition hash), probe the memo, and link in-batch duplicates.
	firstIdx := make(map[uint64][]int, len(cands))
	for i, c := range cands {
		hashes = append(hashes, memoHash(c))
		dupOf = append(dupOf, -1)
		if g := o.memo.get(hashes[i], c); g != nil {
			scored[i] = memoHit(g)
			hits++
			continue
		}
		for _, j := range firstIdx[hashes[i]] {
			if c.mem == cands[j].mem && samePartition(c.p, cands[j].p) {
				dupOf[i] = j
				break
			}
		}
		if dupOf[i] < 0 {
			firstIdx[hashes[i]] = append(firstIdx[hashes[i]], i)
		}
	}
	o.batchHash, o.batchDup = hashes, dupOf
	// Phase 2 (parallel): score first occurrences.
	ParallelFor(len(cands), o.opt.Workers, func(i int) {
		if scored[i] == nil && dupOf[i] < 0 {
			scored[i] = o.score(cands[i], o.samples+i+1)
		}
	})
	// Phase 3 (serial): resolve in-batch duplicates of memoizable first
	// occurrences; the rest (repair-RNG-dependent results) must score with
	// their own sample seeds, exactly as they would without the memo — on the
	// worker pool again, since a tight memory config can make them common.
	rescore := false
	for i := range cands {
		if dupOf[i] < 0 {
			continue
		}
		if first := scored[dupOf[i]]; o.memoizable(first, cands[dupOf[i]]) {
			scored[i] = memoHit(first)
			hits++
		} else {
			rescore = true
		}
	}
	if rescore {
		ParallelFor(len(cands), o.opt.Workers, func(i int) {
			if scored[i] == nil {
				scored[i] = o.score(cands[i], o.samples+i+1)
			}
		})
	}
	o.stats.MemoHits += hits
	for i, g := range scored {
		o.commit(g)
		// Memo-hit replays fail the pointer check in memoizable, so only
		// freshly scored, deterministic results are (re)stored.
		if o.memoizable(g, cands[i]) {
			o.memo.put(hashes[i], cands[i], g)
		}
	}
	return scored
}

// score evaluates one candidate, applying the in-situ split repair of
// §4.4.4: subgraphs exceeding the buffer capacity are split until everything
// fits (singletons always fit via the layer-level tiling fallback). It is
// safe to call concurrently: it touches no optimizer state beyond the
// read-only options and the internally synchronized evaluator.
func (o *Optimizer) score(c candidate, sample int) *Genome {
	g := &Genome{P: c.p, Mem: c.mem}
	var res *eval.Result
	if o.opt.DisableInSituSplit {
		res = o.ev.Partition(g.P, g.Mem)
	} else {
		rng := rand.New(NewSource(ChildSeedStream(o.opt.Seed, StreamSamples, sample)))
		g.P, res = RepairInSitu(o.ev, rng, g.P, g.Mem)
	}
	g.Res = res
	g.Cost = o.opt.Objective.Cost(res, g.Mem)
	return g
}

// commit folds one scored genome into the optimizer state. Called serially,
// in submission order.
func (o *Optimizer) commit(g *Genome) {
	o.samples++
	if g.Res.Feasible() {
		o.stats.FeasibleSamples++
		if o.best == nil || g.Cost < o.best.Cost {
			o.best = g.Clone()
		}
	}
	if o.opt.Trace != nil {
		o.opt.Trace(TracePoint{
			Sample:     o.samples,
			Cost:       g.Cost,
			Metric:     g.Res.MetricValue(o.opt.Objective.Metric),
			Mem:        g.Mem,
			Feasible:   g.Res.Feasible(),
			BestCost:   o.bestCost(),
			Generation: o.gen,
		})
	}
}

func (o *Optimizer) mutate(g *Genome) {
	if o.rng.Float64() < MutModify {
		g.P = mutateModifyNode(o.ev.Graph(), o.rng, g.P)
	}
	if o.rng.Float64() < MutSplit {
		g.P = mutateSplit(o.ev.Graph(), o.rng, g.P)
	}
	if o.rng.Float64() < MutMerge {
		g.P = mutateMerge(o.ev.Graph(), o.rng, g.P)
	}
	if o.opt.Mem.Search && o.rng.Float64() < MutDSE {
		g.Mem = MutateMemConfig(o.rng, o.opt.Mem, g.Mem)
	}
}

// selectNext forms the next generation by tournament selection over the
// combined parent+offspring pool, with elitism for the best genome (§4.4.5).
func (o *Optimizer) selectNext(pool []*Genome) []*Genome {
	next := make([]*Genome, 0, o.opt.Population)
	if o.best != nil {
		next = append(next, o.best.Clone())
	}
	for len(next) < o.opt.Population {
		winner := pool[o.rng.Intn(len(pool))]
		for i := 1; i < Tournament; i++ {
			c := pool[o.rng.Intn(len(pool))]
			if c.Cost < winner.Cost {
				winner = c
			}
		}
		next = append(next, winner)
	}
	// Deterministic ordering aids reproducibility of subsequent draws.
	sort.SliceStable(next, func(i, j int) bool { return next[i].Cost < next[j].Cost })
	return next
}
