// Package tiling implements the paper's subgraph execution scheme (§3.1):
// the consumption-centric three-stage flow that derives, for every node of a
// subgraph, the memory update offset Δ, the buffer allocation size x, and the
// number of memory updates per subgraph-level elementary operation
// (upd_num), plus the execution sequence.
//
// The derivation is the paper's 1D formulation applied independently to the
// height and width dimensions (the paper notes the 2D case is analogous).
// All algebra is exact (integer LCM/GCD over int64); clamping to finite
// tensor extents happens only when footprints are computed.
//
// The package also implements the production-centric scheme of Figure 4(a)
// as a baseline, used by the ablation benchmarks to quantify how much buffer
// the consumption-centric flow saves.
package tiling

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"cocco/internal/graph"
)

// Config controls stage-1: the tile size assigned to the subgraph's output
// nodes by the single-layer mapper. The paper picks small output tiles so a
// larger subgraph fits ("the tile size tends to be smaller").
type Config struct {
	// BaseTileH and BaseTileW are the stage-1 output-node tile sizes
	// (Δ = x for output nodes). Must be ≥ 1.
	BaseTileH, BaseTileW int
}

// DefaultConfig matches the paper's worked example granularity.
func DefaultConfig() Config { return Config{BaseTileH: 2, BaseTileW: 2} }

// String renders the config in the "HxW" form ParseConfig accepts.
func (c Config) String() string { return fmt.Sprintf("%dx%d", c.BaseTileH, c.BaseTileW) }

// ParseConfig parses a "HxW" base-tile spec (e.g. "2x2", "4x2") into a
// Config. It is the CLI form of the tiling configuration: cmd/cocco and
// cmd/dse thread a -tiling flag through it.
func ParseConfig(s string) (Config, error) {
	var c Config
	if _, err := fmt.Sscanf(s, "%dx%d", &c.BaseTileH, &c.BaseTileW); err != nil {
		return c, fmt.Errorf("tiling: config %q: want HxW (e.g. 2x2)", s)
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// Validate reports whether c is usable: both base tiles must be at least 1.
// Its error is the one NewDeriver returns for c.
func (c Config) Validate() error {
	if c.BaseTileH < 1 || c.BaseTileW < 1 {
		return fmt.Errorf("tiling: base tile must be >= 1, got %dx%d", c.BaseTileH, c.BaseTileW)
	}
	return nil
}

// NodeScheme is the derived execution behavior of one node within a
// subgraph elementary operation.
type NodeScheme struct {
	// ID is the graph node id.
	ID int
	// External marks producers that live outside the subgraph (the paper's
	// negative-numbered nodes): their data is loaded from DRAM into the
	// buffer rather than computed locally.
	External bool
	// Output marks nodes whose results leave the subgraph (model outputs or
	// inputs of later subgraphs); they are written back to DRAM.
	Output bool

	// DeltaH/DeltaW are the per-dimension update offsets (Δ): the number of
	// new rows/columns materialized per memory update of this node.
	DeltaH, DeltaW int64
	// TileH/TileW are the per-dimension allocation sizes (x): how many
	// rows/columns of this node's data must be resident.
	TileH, TileW int64
	// UpdH/UpdW are the per-dimension update counts per elementary
	// operation (upd_num), in the minimal co-prime solution.
	UpdH, UpdW int64

	// Main and Side are the node's on-chip activation bytes in the two
	// buffer regions of §3.2 / Figure 7: Main holds the resident tile,
	// Side the horizontally overlapping rows kept for the next row loop.
	Main, Side int64
}

// Scheme is the full execution scheme of one subgraph.
type Scheme struct {
	// Nodes maps node id → derived scheme, covering subgraph members and
	// their external producers.
	Nodes map[int]*NodeScheme
	// Order is the execution sequence of member nodes (topological).
	Order []int
}

// Derive runs the three-stage flow for the subgraph consisting of `members`
// (compute-node ids of g). Produces schemes for all members plus every
// external producer feeding the subgraph.
//
// Stage-1 assigns cfg's base tile to output nodes; stage-2 walks members in
// reverse topological order computing Δ via LCM alignment and x via the
// max-consumption rule; stage-3 solves the co-prime upd_num system.
//
// Derive builds a fresh Deriver per call; callers on a hot path should hold
// (or pool) a Deriver and reuse its scratch buffers instead.
func Derive(g *graph.Graph, members []int, cfg Config) (*Scheme, error) {
	d, err := NewDeriver(g, cfg)
	if err != nil {
		return nil, err
	}
	return d.Derive(members)
}

type ratVal struct{ num, den int64 }

func reduceRat(num, den int64) ratVal {
	if den < 0 {
		num, den = -num, -den
	}
	g := gcd64(abs64(num), den)
	if g == 0 {
		return ratVal{0, 1}
	}
	return ratVal{num / g, den / g}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// lcm64 returns the least common multiple of two non-negative values, and
// false when it does not fit in an int64.
func lcm64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	return mul64(a/gcd64(a, b), b)
}

// mul64 returns a·b for non-negative a and b, and false when the product
// does not fit in an int64.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	return int64(lo), true
}

// clamp returns min(v, max(1, limit)).
func clamp(v, limit int64) int64 {
	if limit < 1 {
		limit = 1
	}
	if v > limit {
		return limit
	}
	return v
}

// FootprintBytes returns the on-chip activation bytes required by node id
// under this scheme: its MAIN plus SIDE region (NodeScheme.Main + Side).
func (s *Scheme) FootprintBytes(id int) int64 {
	ns := s.Nodes[id]
	return ns.Main + ns.Side
}

// TotalFootprintBytes sums FootprintBytes over every node in the scheme
// (members and external producers): the global-buffer requirement of the
// subgraph's activations.
func (s *Scheme) TotalFootprintBytes() int64 {
	var t int64
	for _, ns := range s.Nodes {
		t += ns.Main + ns.Side
	}
	return t
}

// TotalMainBytes sums only the MAIN-region (resident tile) bytes over every
// node of the scheme, excluding SIDE reservations. This is the quantity
// comparable with ProductionFootprintBytes: the sliding-overlap SIDE
// reservation is orthogonal to the production-vs-consumption contrast of
// Figure 4, which is about tile over-allocation.
func (s *Scheme) TotalMainBytes() int64 {
	var t int64
	for _, ns := range s.Nodes {
		t += ns.Main
	}
	return t
}

// ProductionFootprintBytes computes the resident-tile buffer requirement of
// the production-centric scheme of Figure 4(a) for the same subgraph and the
// same per-step output (the consumption scheme's base output tiles).
//
// Without the Δ/LCM sliding alignment there is no retained reuse across
// steps, so each step needs the full nested backward window at every input
// (e.g. the 5×5 input of the paper's example), and every node then eagerly
// produces — and must buffer — everything that window allows (Node(1)'s 5×5
// instead of the 3×3 actually consumed). Compare with Scheme.TotalMainBytes.
func ProductionFootprintBytes(g *graph.Graph, members []int, cons *Scheme) int64 {
	member := make(map[int]bool, len(members))
	for _, id := range members {
		member[id] = true
	}
	ids := make([]int, 0, len(cons.Nodes))
	for id := range cons.Nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	// Backward pass: nested windows. need[id] = rows/cols of id's output
	// required to produce one base output tile everywhere downstream.
	type dims struct{ h, w int64 }
	need := map[int]dims{}
	for i := len(ids) - 1; i >= 0; i-- {
		id := ids[i]
		ns := cons.Nodes[id]
		var d dims
		hasInternal := false
		for _, cc := range g.SuccIDs(id) {
			c := int(cc)
			cns, ok := cons.Nodes[c]
			if !ok || cns.External {
				continue
			}
			hasInternal = true
			nc := g.Node(c)
			cd := need[c]
			h := int64(nc.KernelH) + (cd.h-1)*int64(nc.StrideH)
			w := int64(nc.KernelW) + (cd.w-1)*int64(nc.StrideW)
			if h > d.h {
				d.h = h
			}
			if w > d.w {
				d.w = w
			}
		}
		if !hasInternal {
			// Output nodes produce the same base tile as the consumption
			// scheme (equal per-step work). ns.DeltaH equals the base for
			// nodes without internal consumers.
			d = dims{ns.DeltaH, ns.DeltaW}
		}
		need[id] = d
	}

	// Forward pass: eager production from the nested input windows.
	tiles := map[int]dims{}
	var total int64
	for _, id := range ids {
		ns := cons.Nodes[id]
		n := g.Node(id)
		var d dims
		if ns.External {
			d = need[id]
		} else {
			d = dims{1 << 62, 1 << 62}
			for _, p := range g.PredIDs(id) {
				pt, ok := tiles[int(p)]
				if !ok {
					continue
				}
				h := (pt.h-int64(n.KernelH))/int64(n.StrideH) + 1
				w := (pt.w-int64(n.KernelW))/int64(n.StrideW) + 1
				if h < d.h {
					d.h = h
				}
				if w < d.w {
					d.w = w
				}
			}
		}
		if d.h < 1 {
			d.h = 1
		}
		if d.w < 1 {
			d.w = 1
		}
		d.h = clamp(d.h, int64(n.OutH))
		d.w = clamp(d.w, int64(n.OutW))
		tiles[id] = d
		total += d.h * d.w * int64(n.OutC)
	}
	return total
}
