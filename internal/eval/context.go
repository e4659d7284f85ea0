package eval

import (
	"sync"

	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/mapper"
	"cocco/internal/tiling"
)

// GraphContext is the immutable, platform-independent half of an Evaluator:
// everything New derives from the graph (and the tiling config) alone —
// per-node weight/output-byte/MAC tables and the GLB window-replication
// factors. It is computed once per graph and shared read-only by any number
// of Evaluators, which is what makes batched multi-config DSE cheap:
// sweeping N hardware configs over one model pays the graph-derived cold
// path once instead of N times.
//
// The context also owns the shared subgraph-cost caches, one per core
// geometry (hw.Core) — the only part of a platform subgraph costing depends
// on. Evaluators fanned out of one context with the same geometry share one
// cache read/write, so in a DSE sweep only the first config per geometry
// pays cold costing and every sibling gets warm hits.
//
// Immutability contract: after NewGraphContext returns, no field of the
// context is ever written again, except the per-Core compute-cycles memo
// and cost-cache registry, which are guarded by the context mutex and only
// ever gain entries (a stored cycle table is itself immutable; a costCache
// has its own internal shard locks). A GraphContext is therefore safe for
// concurrent NewEvaluator calls and concurrent use by the evaluators it
// produced.
type GraphContext struct {
	g    *graph.Graph
	tcfg tiling.Config

	// Per-node tables indexed by node id. Subgraph costing is a pure sum of
	// these over members (plus the platform's cycle table).
	weightBytes []int64
	outBytes    []int64
	macs        []int64
	rep         []int64

	// cycles memoizes the mapper.NodeCycles table per core geometry — the
	// only per-platform table an Evaluator needs. A DSE sweep varies buffer
	// capacities, kinds, core counts, and batch sizes while the core itself
	// stays fixed, so config #2..#N hit this memo and evaluator construction
	// collapses to pool/cache setup. caches registers the shared subgraph-
	// cost cache per core geometry under the same keying: sibling evaluators
	// get the same *costCache and pay cold costing once per geometry.
	mu     sync.Mutex
	cycles map[hw.Core][]int64
	caches map[hw.Core]*costCache
}

// NewGraphContext computes the graph-derived evaluation tables for g under
// the given tiling config. The config is checked by NewEvaluator, which
// refuses an invalid one.
func NewGraphContext(g *graph.Graph, tcfg tiling.Config) *GraphContext {
	gc := &GraphContext{
		g: g, tcfg: tcfg,
		cycles: make(map[hw.Core][]int64),
		caches: make(map[hw.Core]*costCache),
	}
	n := g.Len()
	gc.weightBytes = make([]int64, n)
	gc.outBytes = make([]int64, n)
	gc.macs = make([]int64, n)
	gc.rep = make([]int64, n)
	for id := 0; id < n; id++ {
		nd := g.Node(id)
		gc.weightBytes[id] = nd.WeightBytes()
		gc.outBytes[id] = nd.OutBytes()
		gc.macs[id] = nd.MACs()
		gc.rep[id] = int64(ceilDiv(nd.KernelH, nd.StrideH)) * int64(ceilDiv(nd.KernelW, nd.StrideW))
	}
	return gc
}

// Graph returns the context's graph.
func (gc *GraphContext) Graph() *graph.Graph { return gc.g }

// TilingConfig returns the tiling config the context was built for.
func (gc *GraphContext) TilingConfig() tiling.Config { return gc.tcfg }

// cyclesFor returns the per-node compute-cycle table for the given core
// geometry, computing it on first use and serving the memoized table after.
// Returned tables are immutable and shared across evaluators.
func (gc *GraphContext) cyclesFor(core hw.Core) []int64 {
	gc.mu.Lock()
	if t, ok := gc.cycles[core]; ok {
		gc.mu.Unlock()
		return t
	}
	gc.mu.Unlock()

	// Compute outside the lock: NodeCycles is O(nodes × mappings) and two
	// concurrent first-touch callers computing the same (deterministic)
	// table is cheaper than serializing every evaluator construction.
	n := gc.g.Len()
	t := make([]int64, n)
	for id := 0; id < n; id++ {
		t[id] = mapper.NodeCycles(core, gc.g.Node(id))
	}

	gc.mu.Lock()
	if first, ok := gc.cycles[core]; ok {
		gc.mu.Unlock()
		return first
	}
	gc.cycles[core] = t
	gc.mu.Unlock()
	return t
}

// cacheFor returns the shared subgraph-cost cache for the given core
// geometry, registering an empty one on first use. Creation is keep-first
// under the context mutex, so every evaluator of one geometry — however
// concurrently constructed — holds the same *costCache forever.
func (gc *GraphContext) cacheFor(core hw.Core) *costCache {
	gc.mu.Lock()
	cc, ok := gc.caches[core]
	if !ok {
		cc = &costCache{}
		gc.caches[core] = cc
	}
	gc.mu.Unlock()
	return cc
}

// NewEvaluator returns a thin per-platform Evaluator over the shared
// context: it adds only the platform's compute-cycle table and cost cache
// (both memoized per core geometry on the context, the cache shared
// read/write with every same-geometry sibling) and a scratch pool. Results
// are bit-identical to a standalone eval.New evaluator for the same (graph,
// platform, tiling config) — the equivalence suite pins this across the
// model zoo. Sharing the cost cache cannot change results either: cache
// entries change only WHEN costs are computed, never what they are. An
// invalid platform or tiling config is refused.
func (gc *GraphContext) NewEvaluator(p hw.Platform) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := gc.tcfg.Validate(); err != nil {
		return nil, err
	}
	e := &Evaluator{ctx: gc, platform: p, cycles: gc.cyclesFor(p.Core), cache: gc.cacheFor(p.Core)}
	n := gc.g.Len()
	e.scratch.New = func() any {
		sc := &evalScratch{
			inSet:   graph.NewMarks(n),
			seenExt: graph.NewMarks(n),
			members: make([]int, 0, n),
		}
		// The config passed Validate above, so NewDeriver cannot fail.
		sc.der, _ = tiling.NewDeriver(gc.g, gc.tcfg)
		return sc
	}
	return e, nil
}

// MustNewEvaluator is NewEvaluator that panics on error.
func (gc *GraphContext) MustNewEvaluator(p hw.Platform) *Evaluator {
	e, err := gc.NewEvaluator(p)
	if err != nil {
		panic(err)
	}
	return e
}
