// Package eval is the evaluation environment of the paper (§4.4.4, §5.1.2):
// a modified Timeloop/MAESTRO-style analytic simulator that, given a graph
// partition and a memory configuration, reports external memory access
// (EMA), energy, latency, and bandwidth requirements, and checks buffer
// feasibility through the consumption-centric tiling footprints.
//
// Per-subgraph raw costs depend only on the subgraph's member set, so they
// are memoized aggressively — the genetic search re-evaluates overlapping
// subgraphs constantly and the cache is what makes 10^5-sample searches
// cheap.
package eval

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/partition"
	"cocco/internal/tiling"
)

// Metric selects the mapping-cost metric M of the paper's cost functions.
type Metric int

const (
	// MetricEMA optimizes external memory access bytes (Formula 1 with
	// M = EMA; used in §5.2).
	MetricEMA Metric = iota
	// MetricEnergy optimizes energy in pJ (used in §5.3).
	MetricEnergy
)

func (m Metric) String() string {
	if m == MetricEnergy {
		return "energy"
	}
	return "EMA"
}

// ParseMetric reads a metric as flags and job specs name it: "ema" or
// "energy". Any other name is an error. String keeps printing "EMA", the
// spelling the paper's tables use.
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "ema":
		return MetricEMA, nil
	case "energy":
		return MetricEnergy, nil
	}
	return 0, fmt.Errorf("eval: unknown metric %q (want ema or energy)", s)
}

// Objective is the optimization objective. With Alpha == 0 it is the
// partition-only Formula 1; with Alpha > 0 it is the co-exploration
// Formula 2: BUF_SIZE + α·ΣCost_M (buffer size in bytes, energy in pJ).
// Every optimizer ranks genomes by Cost, so their costs compare directly.
// A negative Alpha reads as Formula 1; job admission (serve.NormalizeSpec),
// which cocco and coccod share, refuses one.
type Objective struct {
	Metric Metric
	Alpha  float64
}

// InfeasibleCost is the cost of a result that stays infeasible after
// repair: it loses to every real cost and, unlike math.Inf, serializes in
// JSON.
const InfeasibleCost = 1e30

// Cost ranks a result on mem: Formula 1 or 2 of its metric when it is
// feasible, InfeasibleCost when not, so infeasible results tie.
func (o Objective) Cost(res *Result, mem hw.MemConfig) float64 {
	if !res.Feasible() {
		return InfeasibleCost
	}
	return o.Of(res.MetricValue(o.Metric), mem)
}

// Of is Formula 1 or 2 of a feasible metric value on mem.
func (o Objective) Of(metric float64, mem hw.MemConfig) float64 {
	if o.Alpha > 0 {
		return float64(mem.TotalBytes()) + o.Alpha*metric
	}
	return metric
}

// SubgraphCost holds the partition-independent raw costs of one subgraph.
type SubgraphCost struct {
	// Members are the subgraph's node ids (ascending).
	Members []int

	// WeightBytes is the total weight footprint (and weight EMA per pass).
	WeightBytes int64
	// InBytes is the activation bytes loaded from DRAM (external producers'
	// tensors, each loaded exactly once thanks to full on-chip reuse).
	InBytes int64
	// OutBytes is the activation bytes written back to DRAM (tensors
	// consumed by later subgraphs or model outputs).
	OutBytes int64
	// ActFootprint is the on-chip activation requirement from the
	// consumption-centric scheme (MAIN+SIDE over all nodes).
	ActFootprint int64
	// MACs is the subgraph's multiply-accumulate count.
	MACs int64
	// ComputeCycles is the single-core, batch-1 compute time under each
	// layer's best PE-array mapping (internal/mapper).
	ComputeCycles int64
	// GLBAccessBytes approximates global-buffer traffic: every produced or
	// loaded byte written once, plus reads per consumer edge scaled by the
	// consumer's window-overlap factor.
	GLBAccessBytes int64

	// Err is non-nil if the tiling derivation failed; such a subgraph is
	// never feasible.
	Err error
}

// EMABytes is the subgraph's external traffic for one sample.
func (c *SubgraphCost) EMABytes() int64 { return c.WeightBytes + c.InBytes + c.OutBytes }

// shardBits/cacheShards fix the number of independently locked cost-cache
// segments. The parallel GA hits the cache from every worker on every sample,
// so a single mutex serializes the whole search; 64 shards keep contention
// negligible at any realistic core count for 1 KiB of fixed overhead. The
// shard is chosen by the top bits of the key's FNV-1a hash.
const (
	shardBits   = 6
	cacheShards = 1 << shardBits
)

// cacheShard is one independently locked segment of the cost cache, a map
// from canonical member key to cost, made on its first insert. Entries are
// never deleted or replaced, so a *SubgraphCost handed out stays the cost of
// its key forever.
type cacheShard struct {
	mu sync.Mutex
	m  map[string]*SubgraphCost
}

// costCache is one shared subgraph-cost cache: cacheShards independently
// locked maps. It is owned by the GraphContext and keyed by core geometry
// (hw.Core), because a subgraph's raw cost depends on the platform ONLY
// through the per-core compute-cycle table — memory capacities, buffer
// kind, core count, and batch all enter later, in Contribution. Every
// evaluator fanned out of one context with the same core geometry therefore
// shares one costCache read/write: in a DSE sweep only the first config per
// geometry pays cold costing and every sibling gets warm hits. The
// keep-first contract of keepFirst holds across sibling evaluators exactly
// as it holds across goroutines of one evaluator, so every caller of one
// key, in any sibling, holds the same *SubgraphCost.
type costCache struct {
	shards [cacheShards]cacheShard
}

// entries returns the number of distinct subgraphs the cache holds. It is
// fully deterministic under concurrency: the set of cached subgraphs depends
// only on which member sets were ever evaluated, not on which goroutine or
// sibling evaluator won a cold-miss race.
func (cc *costCache) entries() int64 {
	var n int64
	for i := range cc.shards {
		s := &cc.shards[i]
		s.mu.Lock()
		n += int64(len(s.m))
		s.mu.Unlock()
	}
	return n
}

// keepFirst is the cache's one lookup-or-insert path, shared by lookup (so
// Subgraph and Partition) and LoadCache. It returns the cost cached under
// key, and hit = true when the first lookup found it. On a miss it calls
// compute outside the shard lock, then re-checks under it: if another
// goroutine (or a sibling evaluator, or a load) stored the key meanwhile,
// that FIRST *SubgraphCost is returned and compute's duplicate is dropped,
// so every caller of one key holds the same pointer. The key bytes are
// copied into a string only when inserted.
func keepFirst(cc *costCache, key []byte, compute func() *SubgraphCost) (c *SubgraphCost, hit bool) {
	s := &cc.shards[hashKey(key)>>(64-shardBits)]
	s.mu.Lock()
	c, hit = s.m[string(key)]
	s.mu.Unlock()
	if hit {
		return c, true
	}
	c = compute()
	s.mu.Lock()
	defer s.mu.Unlock()
	if first, ok := s.m[string(key)]; ok {
		return first, false
	}
	if s.m == nil {
		s.m = make(map[string]*SubgraphCost)
	}
	s.m[string(key)] = c
	return c, false
}

// Evaluator evaluates partitions of one graph on one platform.
// It is safe for concurrent use: the subgraph-cost cache is sharded N ways
// by key hash so concurrent lookups only contend within a shard.
//
// An Evaluator is a thin per-(platform, tiling-config) layer over a shared,
// immutable GraphContext: the context owns every graph-derived table, the
// tiling config's validation, and the per-core-geometry cost caches, while
// the evaluator adds only its platform, hit/call counters, and a scratch pool.
// New builds a private context; GraphContext.NewEvaluator shares one across
// many evaluators (the batched-DSE fast path), and evaluators with the same
// core geometry share one cost cache through it.
type Evaluator struct {
	ctx      *GraphContext
	platform hw.Platform
	prefetch bool

	// cycles is the per-node mapper.NodeCycles table for platform.Core —
	// the only per-platform table subgraph costing needs (memoized on the
	// context per core geometry, shared read-only).
	cycles []int64

	// cache is the context's shared cost cache for platform.Core. Sibling
	// evaluators of the same geometry hold the same pointer; evaluators of
	// different geometries never do, so costs cannot cross geometries.
	cache *costCache

	// scratch pools per-goroutine evalScratch state (membership marks, the
	// tiling Deriver, member and key buffers), making the whole cold path
	// allocation-free apart from the SubgraphCost it produces.
	scratch sync.Pool

	hits  atomic.Int64
	calls atomic.Int64
}

// evalScratch is the reusable per-goroutine state of one evaluation.
type evalScratch struct {
	inSet   *graph.Marks    // subgraph membership
	seenExt *graph.Marks    // external producers already charged
	der     *tiling.Deriver // activation footprints (TotalFootprint)
	members []int           // Subgraph's sorted copy, or Partition's member runs
	runOff  []int           // Partition's run bounds: members[runOff[s]:runOff[s+1]]
	keyBuf  []byte          // member-key build buffer
}

// EnablePrefetchCheck makes feasibility account for the weight prefetch of
// §5.1.2 ("prefetch weights of the next subgraph during the current
// computing"): consecutive multi-layer subgraphs must fit both weight sets
// in the weight buffer simultaneously. Off by default (single-buffered
// weights), matching the evaluation's main configuration; the ablation
// benchmarks quantify the difference. Call before the first evaluation.
func (e *Evaluator) EnablePrefetchCheck() { e.prefetch = true }

// New returns an Evaluator for g on the given platform, precomputing the
// per-node cost tables (weights, output bytes, MACs, best-mapping compute
// cycles, GLB replication factors) the subgraph costing sums over. An
// invalid platform or tiling config is refused.
//
// New builds a private GraphContext per call. Callers evaluating one graph
// under many platform or memory configurations should build the context
// once with NewGraphContext and fan evaluators out of it — the results are
// bit-identical and the graph-derived cold path is paid once.
func New(g *graph.Graph, p hw.Platform, tcfg tiling.Config) (*Evaluator, error) {
	return NewGraphContext(g, tcfg).NewEvaluator(p)
}

// MustNew is New that panics on error.
func MustNew(g *graph.Graph, p hw.Platform, tcfg tiling.Config) *Evaluator {
	e, err := New(g, p, tcfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Graph returns the evaluated graph.
func (e *Evaluator) Graph() *graph.Graph { return e.ctx.g }

// Context returns the shared graph context the evaluator was built over.
func (e *Evaluator) Context() *GraphContext { return e.ctx }

// Platform returns the platform.
func (e *Evaluator) Platform() hw.Platform { return e.platform }

// CacheStats reports THIS evaluator's memoization effectiveness (hits, total
// lookups) — the counters are per-evaluator even though the cache itself is
// shared per core geometry, so a DSE sweep can attribute warm hits to the
// config that made them. Lookups are deterministic for a fixed-seed search,
// but with concurrent callers (or sibling evaluators priming shared keys)
// hits may vary by a few counts across runs; use CacheEntries for a
// scheduling-independent measure.
func (e *Evaluator) CacheStats() (hits, calls int64) {
	return e.hits.Load(), e.calls.Load()
}

// DeltaStats always returns 0: every subgraph lookup goes through the cost
// cache, and CacheStats counts it. It remains only for the benchmark
// harness (bench/), whose eval.delta_reuse_ratio row reads it.
func (e *Evaluator) DeltaStats() (reused int64) { return 0 }

// CacheEntries reports the number of distinct subgraphs in the SHARED cost
// cache this evaluator uses — sibling evaluators of the same core geometry
// report the same number, including entries a sibling computed. Unlike the
// per-evaluator hit counter it is fully deterministic under concurrency:
// the set of evaluated subgraphs depends only on the search trajectory, not
// on which goroutine won a cold-miss race (losers discard their duplicate,
// so an entry is inserted exactly once per distinct key).
func (e *Evaluator) CacheEntries() int64 { return e.cache.entries() }

// hashKey is 64-bit FNV-1a over the canonical member key; its top bits pick
// the cost-cache shard.
func hashKey(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// Subgraph computes (or returns the memoized) raw cost of the subgraph with
// the given member ids. Members need not be sorted. The sort and key build
// happen in pooled scratch, so a warm call performs no allocations.
func (e *Evaluator) Subgraph(members []int) *SubgraphCost {
	sc := e.scratch.Get().(*evalScratch)
	sc.members = append(sc.members[:0], members...)
	sort.Ints(sc.members)
	c := e.lookup(sc, sc.members)
	e.scratch.Put(sc)
	return c
}

// lookup returns the cost of the ascending member ids from the cache,
// computing it on a miss, and counts the lookup. The key is built in sc, so
// a hit allocates nothing; members is borrowed.
func (e *Evaluator) lookup(sc *evalScratch, members []int) *SubgraphCost {
	sc.keyBuf = partition.AppendMemberKey(sc.keyBuf[:0], members)
	c, hit := keepFirst(e.cache, sc.keyBuf, func() *SubgraphCost {
		return e.computeSubgraph(sc, members)
	})
	e.calls.Add(1)
	if hit {
		e.hits.Add(1)
	}
	return c
}

// computeSubgraph prices one subgraph as table arithmetic over the member
// ids: every node-level quantity was precomputed in New, membership tests
// are epoch-stamped probes, and the tiling footprint comes from the pooled
// scratch Deriver — the only allocations are the returned SubgraphCost and
// its owned member slice. members is borrowed (scratch); it is copied.
func (e *Evaluator) computeSubgraph(sc *evalScratch, members []int) *SubgraphCost {
	c := &SubgraphCost{Members: append([]int(nil), members...)}

	gc := e.ctx
	fp, err := sc.der.TotalFootprint(c.Members)
	if err != nil {
		c.Err = fmt.Errorf("eval: subgraph %v: %w", c.Members, err)
		return c
	}
	c.ActFootprint = fp

	sc.inSet.Reset()
	for _, id := range c.Members {
		sc.inSet.Set(id)
	}
	sc.seenExt.Reset()
	for _, id := range c.Members {
		c.WeightBytes += gc.weightBytes[id]
		c.MACs += gc.macs[id]
		c.ComputeCycles += e.cycles[id]

		// Inputs: external producers, each counted once.
		for _, p := range gc.g.PredIDs(id) {
			pi := int(p)
			if !sc.inSet.Has(pi) && !sc.seenExt.Has(pi) {
				sc.seenExt.Set(pi)
				c.InBytes += gc.outBytes[pi]
			}
		}
		// Outputs: consumed outside the subgraph or a model output.
		succ := gc.g.SuccIDs(id)
		out := len(succ) == 0
		for _, s := range succ {
			if !sc.inSet.Has(int(s)) {
				out = true
				break
			}
		}
		if out {
			c.OutBytes += gc.outBytes[id]
		}
	}

	// Global-buffer traffic: every byte produced in (or loaded into) the
	// buffer is written once; every consumer reads its producer's tensor
	// with the window-overlap replication factor ceil(F/s) per dimension.
	c.GLBAccessBytes = c.InBytes
	for _, id := range c.Members {
		c.GLBAccessBytes += gc.outBytes[id] // write of produced tile stream
		rep := gc.rep[id]
		for _, p := range gc.g.PredIDs(id) {
			c.GLBAccessBytes += gc.outBytes[int(p)] * rep
		}
	}
	return c
}

// Fits reports whether the subgraph fits the memory configuration by the
// rule every Result applies (Contribution.Fits): its weights are sharded
// across the platform's cores (§5.4.2), so activations must fit the global
// buffer and one core's share ⌈W/cores⌉ the weight buffer for the separate
// design, or their sum the shared capacity.
//
// Single-layer subgraphs always fit: a lone layer falls back to classic
// layer-level output-tiled execution (§2.2.1), which handles tensors and
// weights of any size by streaming — with the same EMA as our model already
// charges (weights, inputs, and outputs each move once).
func (e *Evaluator) Fits(c *SubgraphCost, mem hw.MemConfig) bool {
	return e.Contribution(c, mem).Fits
}

// Result is the full evaluation of a partition under a memory configuration.
type Result struct {
	// EMABytes is total external traffic (weights once per subgraph,
	// activations scaled by batch).
	EMABytes int64
	// EnergyPJ is total energy: DRAM + buffers + MACs + crossbar.
	EnergyPJ float64
	// LatencyCycles is the end-to-end latency in core cycles.
	LatencyCycles int64
	// AvgBWBytesPerSec is EMABytes divided by the latency in seconds.
	AvgBWBytesPerSec float64
	// MaxActFootprint and MaxWgtFootprint are the largest per-subgraph
	// buffer requirements (per core).
	MaxActFootprint int64
	MaxWgtFootprint int64
	// Infeasible lists subgraph ids that do not fit the memory config.
	Infeasible []int
	// NumSubgraphs echoes the partition size.
	NumSubgraphs int
}

// Feasible reports whether every subgraph fits.
func (r *Result) Feasible() bool { return len(r.Infeasible) == 0 }

// LatencySeconds converts the cycle count at the platform frequency.
func (e *Evaluator) LatencySeconds(cycles int64) float64 {
	return float64(cycles) / float64(e.platform.Core.FreqHz)
}

// Contribution is one subgraph's share of the partition-level result under
// a given memory configuration, with multi-core and batch semantics applied.
type Contribution struct {
	EMABytes      int64
	EnergyPJ      float64
	LatencyCycles int64
	WgtPerCore    int64
	Fits          bool
}

// Contribution computes the subgraph's cost share under mem. Multi-core and
// batch semantics follow §5.4.2–5.4.3: the subgraph's weights are sharded
// across cores and rotated over the crossbar; batch samples reuse the
// resident weights and are spread over cores.
func (e *Evaluator) Contribution(c *SubgraphCost, mem hw.MemConfig) Contribution {
	cores := int64(e.platform.Cores)
	batch := int64(e.platform.Batch)
	en := e.platform.Energy
	core := e.platform.Core

	glbCap := mem.GlobalBytes
	wgtCap := mem.WeightBytes
	if mem.Kind == hw.SharedBuffer {
		wgtCap = mem.GlobalBytes
	}

	var out Contribution
	out.WgtPerCore = ceilDiv64(c.WeightBytes, cores)
	out.Fits = c.Err == nil
	if out.Fits && len(c.Members) > 1 {
		if mem.Kind == hw.SharedBuffer {
			out.Fits = c.ActFootprint+out.WgtPerCore <= mem.GlobalBytes
		} else {
			out.Fits = c.ActFootprint <= mem.GlobalBytes && out.WgtPerCore <= mem.WeightBytes
		}
	}

	actBytes := (c.InBytes + c.OutBytes) * batch
	out.EMABytes = c.WeightBytes + actBytes

	// Energy: DRAM for all external traffic; crossbar for weight rotation
	// (each weight byte traverses cores-1 hops to visit every core); buffer
	// accesses; MACs.
	out.EnergyPJ = en.DRAMBytes(out.EMABytes)
	if cores > 1 {
		out.EnergyPJ += en.Crossbar(c.WeightBytes * (cores - 1))
	}
	out.EnergyPJ += en.SRAMBytes(c.GLBAccessBytes*batch, glbCap)
	out.EnergyPJ += en.SRAMBytes(c.WeightBytes, wgtCap)
	out.EnergyPJ += en.MACs(c.MACs * batch)

	// Latency: compute spread over cores vs DRAM traffic over the
	// per-core 16 GB/s channels (each core loads its own shard/samples).
	// Compute cycles come from each layer's best PE-array mapping
	// (internal/mapper), derated further by the platform's residual
	// utilization factor for mapping losses the spatial model cannot see.
	compute := float64(c.ComputeCycles*batch) / core.Utilization
	computeCy := ceilDiv64(int64(compute), cores)
	dram := core.DRAMCycles(ceilDiv64(out.EMABytes, cores))
	out.LatencyCycles = maxI64(computeCy, dram)
	return out
}

// SubgraphMetric returns the subgraph's contribution to the given metric
// under mem, as summed by Partition. Greedy/DP/enumeration baselines use
// this to score candidate subgraphs locally (the metrics decompose as sums
// over subgraphs).
func (e *Evaluator) SubgraphMetric(c *SubgraphCost, mem hw.MemConfig, m Metric) float64 {
	ctr := e.Contribution(c, mem)
	if m == MetricEnergy {
		return ctr.EnergyPJ
	}
	return float64(ctr.EMABytes)
}

// Partition evaluates the whole partition under mem by summing per-subgraph
// contributions. It counting-sorts the assignment into pooled scratch, one
// ascending member run per subgraph, and looks each run up like Subgraph:
// a warm evaluation allocates only the Result (and its Infeasible list when
// subgraphs do not fit). p is only read, so one partition may be evaluated
// from many goroutines at once.
func (e *Evaluator) Partition(p *partition.Partition, mem hw.MemConfig) *Result {
	sc := e.scratch.Get().(*evalScratch)
	sc.sortRuns(p)
	res := e.partitionEval(p.NumSubgraphs(), mem, func(si int) *SubgraphCost {
		return e.lookup(sc, sc.members[sc.runOff[si]:sc.runOff[si+1]])
	})
	e.scratch.Put(sc)
	return res
}

// sortRuns counting-sorts p's assignment into sc.members, subgraph s's
// members ascending at members[runOff[s]:runOff[s+1]].
func (sc *evalScratch) sortRuns(p *partition.Partition) {
	n, nodes := p.NumSubgraphs(), p.Graph().Len()
	off := slices.Grow(sc.runOff[:0], n+1)[:n+1]
	clear(off)
	for id := range nodes {
		if s := p.Of(id); s >= 0 {
			off[s+1]++
		}
	}
	for s := range n {
		off[s+1] += off[s]
	}
	ids := slices.Grow(sc.members[:0], off[n])[:off[n]]
	// off[s] is the next free slot of run s; after the fill it is the start
	// of run s+1, so shifting by one restores the bounds.
	for id := range nodes {
		if s := p.Of(id); s >= 0 {
			ids[off[s]] = id
			off[s]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	sc.runOff, sc.members = off, ids
}

// partitionEval is Partition's aggregation core: costOf supplies subgraph
// si's raw cost, and the aggregates (sums, maxes, infeasibility) are
// accumulated in ascending subgraph order, float summation included. They
// accumulate straight into the Result, so the loop allocates nothing but the
// Result itself (plus its Infeasible slice when subgraphs do not fit).
//
// With the prefetch check on, subgraph si-1 and its prefetched successor si
// hold their weights together (double buffering), so si-1's verdict is
// final only once si is priced: each subgraph joins Infeasible one step
// late, which keeps the list ascending. Singletons stream (the layer-level
// tiling fallback) and are exempt, as in Fits.
func (e *Evaluator) partitionEval(nsub int, mem hw.MemConfig, costOf func(si int) *SubgraphCost) *Result {
	res := &Result{NumSubgraphs: nsub}
	wgtCap := mem.WeightBytes
	if mem.Kind == hw.SharedBuffer {
		wgtCap = mem.GlobalBytes
	}
	var prevWgt int64
	prevMulti, prevBad := false, false
	for si := 0; si < nsub; si++ {
		c := costOf(si)
		ctr := e.Contribution(c, mem)
		multi := len(c.Members) > 1
		if e.prefetch && prevMulti && multi && prevWgt+ctr.WgtPerCore > wgtCap {
			prevBad = true
		}
		if prevBad {
			res.Infeasible = append(res.Infeasible, si-1)
		}
		prevWgt, prevMulti, prevBad = ctr.WgtPerCore, multi, !ctr.Fits
		if c.ActFootprint > res.MaxActFootprint {
			res.MaxActFootprint = c.ActFootprint
		}
		if ctr.WgtPerCore > res.MaxWgtFootprint {
			res.MaxWgtFootprint = ctr.WgtPerCore
		}
		res.EMABytes += ctr.EMABytes
		res.EnergyPJ += ctr.EnergyPJ
		res.LatencyCycles += ctr.LatencyCycles
	}
	if prevBad {
		res.Infeasible = append(res.Infeasible, nsub-1)
	}
	if res.LatencyCycles > 0 {
		res.AvgBWBytesPerSec = float64(res.EMABytes) / e.LatencySeconds(res.LatencyCycles)
	}
	return res
}

// MetricValue extracts the objective metric from a result.
func (r *Result) MetricValue(m Metric) float64 {
	if m == MetricEnergy {
		return r.EnergyPJ
	}
	return float64(r.EMABytes)
}

// Cost evaluates the partition on mem from scratch and ranks it with obj.
func (e *Evaluator) Cost(p *partition.Partition, mem hw.MemConfig, obj Objective) (cost float64, res *Result) {
	res = e.Partition(p, mem)
	return obj.Cost(res, mem), res
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func ceilDiv64(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
