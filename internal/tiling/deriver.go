package tiling

import (
	"fmt"

	"cocco/internal/graph"
)

// Deriver runs the three-stage derivation of Derive with reusable dense
// scratch buffers instead of per-call maps: membership tests are
// epoch-stamped array probes, per-node schemes live in a slice indexed by
// node id, and the upd_num solver's adjacency and rational tables are flat
// arrays rebuilt in place. After warm-up a Deriver derives schemes without
// allocating, which is what makes the evaluator's cold path cheap.
//
// A Deriver is bound to one graph and one config and is NOT safe for
// concurrent use; pool one per goroutine (the evaluator keeps a sync.Pool).
// Results are byte-identical to Derive: both run the same algebra over the
// same traversal orders.
type Deriver struct {
	g   *graph.Graph
	cfg Config

	member *graph.Marks // subgraph membership
	inUniv *graph.Marks // universe membership (members + external producers)
	ids    []int        // sorted universe ids
	ns     []NodeScheme // node id → scheme; valid only where inUniv

	// solveUpd scratch: prod rationals per node, flat adjacency, BFS queue,
	// and the upd rationals of the final scaling step.
	prodSet          *graph.Marks
	prodNum, prodDen []int64
	deg, cursor      []int32
	adjOff           []int32
	adj              []int32
	queue            []int
	updNum, updDen   []int64
}

// NewDeriver returns a Deriver for g with the given config.
func NewDeriver(g *graph.Graph, cfg Config) (*Deriver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := g.Len()
	return &Deriver{
		g:       g,
		cfg:     cfg,
		member:  graph.NewMarks(n),
		inUniv:  graph.NewMarks(n),
		ids:     make([]int, 0, n),
		ns:      make([]NodeScheme, n),
		prodSet: graph.NewMarks(n),
		prodNum: make([]int64, n),
		prodDen: make([]int64, n),
		deg:     make([]int32, n),
		cursor:  make([]int32, n),
		adjOff:  make([]int32, n),
		queue:   make([]int, 0, n),
		updNum:  make([]int64, n),
		updDen:  make([]int64, n),
	}, nil
}

// derive runs the full three-stage flow into the scratch buffers. On return
// d.ids holds the sorted universe and d.ns[id] the scheme of every universe
// node. The buffers stay valid until the next derive call.
func (d *Deriver) derive(members []int) error {
	if len(members) == 0 {
		return fmt.Errorf("tiling: empty subgraph")
	}
	g := d.g
	d.member.Reset()
	d.inUniv.Reset()
	d.ids = d.ids[:0]
	for _, id := range members {
		d.member.Set(id)
	}
	// Universe: members plus their external producers.
	for _, id := range members {
		if !d.inUniv.Has(id) {
			d.inUniv.Set(id)
			d.ids = append(d.ids, id)
		}
		for _, p := range g.PredIDs(id) {
			if !d.inUniv.Has(int(p)) {
				d.inUniv.Set(int(p))
				d.ids = append(d.ids, int(p))
			}
		}
	}
	sortInts(d.ids)

	for _, id := range d.ids {
		isMember := d.member.Has(id)
		ns := NodeScheme{ID: id, External: !isMember}
		// A member is an output if its results leave the subgraph: some
		// consumer is external, or it has no consumers (a model output).
		if isMember {
			succ := g.SuccIDs(id)
			if len(succ) == 0 {
				ns.Output = true
			}
			for _, c := range succ {
				if !d.member.Has(int(c)) {
					ns.Output = true
					break
				}
			}
		}
		d.ns[id] = ns
	}

	if err := d.deriveDim(dimH); err != nil {
		return err
	}
	if err := d.deriveDim(dimW); err != nil {
		return err
	}
	if err := d.solveUpd(dimH); err != nil {
		return err
	}
	if err := d.solveUpd(dimW); err != nil {
		return err
	}
	for _, id := range d.ids {
		d.footprint(id)
	}
	return nil
}

// footprint sizes a node's two buffer regions of Figure 7 from its derived
// tile: MAIN is the tile clamped to the tensor extent, and SIDE reserves the
// (x−Δ) horizontally overlapping rows for the remaining width, unless the
// tile already spans the width. It is the only place the regions are sized.
// A node with no consumer inside the subgraph has x = Δ (stage 1), so it
// reserves no SIDE rows.
func (d *Deriver) footprint(id int) {
	ns := &d.ns[id]
	n := d.g.Node(id)
	h := clamp(ns.TileH, int64(n.OutH))
	w := clamp(ns.TileW, int64(n.OutW))
	ns.Main = h * w * int64(n.OutC)
	if w < int64(n.OutW) && ns.TileH > ns.DeltaH {
		ns.Side = clamp(ns.TileH-ns.DeltaH, int64(n.OutH)) * (int64(n.OutW) - w) * int64(n.OutC)
	}
}

// dim selects the height or width instance of the per-dimension passes.
type dim bool

const (
	dimH dim = true
	dimW dim = false
)

func (d dim) base(cfg Config) int64 {
	if d == dimH {
		return int64(cfg.BaseTileH)
	}
	return int64(cfg.BaseTileW)
}

func (d dim) f(n *graph.Node) int64 {
	if d == dimH {
		return int64(n.KernelH)
	}
	return int64(n.KernelW)
}

func (d dim) s(n *graph.Node) int64 {
	if d == dimH {
		return int64(n.StrideH)
	}
	return int64(n.StrideW)
}

func (d dim) delta(ns *NodeScheme) int64 {
	if d == dimH {
		return ns.DeltaH
	}
	return ns.DeltaW
}

func (d dim) setDelta(ns *NodeScheme, v int64) {
	if d == dimH {
		ns.DeltaH = v
	} else {
		ns.DeltaW = v
	}
}

func (d dim) setTile(ns *NodeScheme, v int64) {
	if d == dimH {
		ns.TileH = v
	} else {
		ns.TileW = v
	}
}

func (d dim) setUpd(ns *NodeScheme, v int64) {
	if d == dimH {
		ns.UpdH = v
	} else {
		ns.UpdW = v
	}
}

// deriveDim is stage 1 + 2 for one dimension: reverse-topological walk over
// the universe assigning Δ (base tile or LCM alignment) and x (base tile or
// max consumption).
func (d *Deriver) deriveDim(dm dim) error {
	g := d.g
	base := dm.base(d.cfg)
	for i := len(d.ids) - 1; i >= 0; i-- {
		u := d.ids[i]
		ns := &d.ns[u]
		// Stage-1: a node without internal consumers is driven by the
		// single-layer mapper: Δ = x = base tile.
		hasCons := false
		for _, c := range g.SuccIDs(u) {
			if d.member.Has(int(c)) {
				hasCons = true
				break
			}
		}
		if !hasCons {
			dm.setDelta(ns, base)
			dm.setTile(ns, base)
			continue
		}
		// Stage-2: Δ(u) = lcm over children v of Δ(v)·s(v);
		// x(u) = max over children of f_v(Δ(u)/s(v)).
		var delta int64 = 1
		for _, c := range g.SuccIDs(u) {
			v := int(c)
			if !d.member.Has(v) {
				continue
			}
			step, ok := mul64(dm.delta(&d.ns[v]), dm.s(g.Node(v)))
			if !ok {
				return fmt.Errorf("tiling: LCM overflow at node %d", u)
			}
			if step <= 0 {
				return fmt.Errorf("tiling: node %d: non-positive step", v)
			}
			if delta, ok = lcm64(delta, step); !ok {
				return fmt.Errorf("tiling: LCM overflow at node %d", u)
			}
		}
		var tile int64
		for _, c := range g.SuccIDs(u) {
			v := int(c)
			if !d.member.Has(v) {
				continue
			}
			nv := g.Node(v)
			sv := dm.s(nv)
			fv := dm.f(nv)
			consumed := delta / sv // consumer offset per producer update
			chi := fv + (consumed-1)*sv
			if chi > tile {
				tile = chi
			}
		}
		dm.setDelta(ns, delta)
		dm.setTile(ns, tile)
	}
	return nil
}

// solveUpd is stage 3 for one dimension: rational propagation of
// prod(n) = upd(n)·Δ(n) over the undirected edge relation, then scaling to
// the minimal positive integer (co-prime) solution. Mirrors the algorithm of
// the original map-based solver exactly, including traversal order.
func (d *Deriver) solveUpd(dm dim) error {
	g := d.g

	// Flat adjacency over universe edges, in the exact append order of the
	// map-based builder: ids ascending, each member v linking v↔u per pred u.
	for _, id := range d.ids {
		d.deg[id] = 0
	}
	for _, v := range d.ids {
		if !d.member.Has(v) {
			continue
		}
		for _, p := range g.PredIDs(v) {
			u := int(p)
			if !d.inUniv.Has(u) {
				continue
			}
			d.deg[u]++
			d.deg[v]++
		}
	}
	var total int32
	for _, id := range d.ids {
		d.adjOff[id] = total
		d.cursor[id] = total
		total += d.deg[id]
	}
	if cap(d.adj) < int(total) {
		d.adj = make([]int32, total)
	}
	d.adj = d.adj[:total]
	for _, v := range d.ids {
		if !d.member.Has(v) {
			continue
		}
		for _, p := range g.PredIDs(v) {
			u := int(p)
			if !d.inUniv.Has(u) {
				continue
			}
			d.adj[d.cursor[u]] = int32(v)
			d.cursor[u]++
			d.adj[d.cursor[v]] = p
			d.cursor[v]++
		}
	}
	adjOf := func(id int) []int32 { return d.adj[d.adjOff[id] : d.adjOff[id]+d.deg[id]] }

	// BFS propagation of the prod rationals, component by component.
	d.prodSet.Reset()
	for _, start := range d.ids {
		if d.prodSet.Has(start) {
			continue
		}
		d.prodSet.Set(start)
		d.prodNum[start] = dm.delta(&d.ns[start])
		d.prodDen[start] = 1
		d.queue = append(d.queue[:0], start)
		for qi := 0; qi < len(d.queue); qi++ {
			n := d.queue[qi]
			pnNum, pnDen := d.prodNum[n], d.prodDen[n]
			for _, mm := range adjOf(n) {
				m := int(mm)
				// Determine edge direction to apply prod(u) = prod(v)·s(v).
				num, den, ok := pnNum, pnDen, false
				if isPredCSR(g, m, n) { // m -> n (m producer)
					num, ok = mul64(pnNum, dm.s(g.Node(n)))
				} else { // n -> m (m consumer): prod(m) = prod(n)/s(m)
					den, ok = mul64(pnDen, dm.s(g.Node(m)))
				}
				if !ok {
					return errUpdOverflow(m)
				}
				pm := reduceRat(num, den)
				if d.prodSet.Has(m) {
					lhs, okL := mul64(d.prodNum[m], pm.den)
					rhs, okR := mul64(pm.num, d.prodDen[m])
					if !okL || !okR {
						return errUpdOverflow(m)
					}
					if lhs != rhs {
						return fmt.Errorf("tiling: inconsistent update rates at node %d (%d/%d vs %d/%d)",
							m, d.prodNum[m], d.prodDen[m], pm.num, pm.den)
					}
					continue
				}
				d.prodSet.Set(m)
				d.prodNum[m] = pm.num
				d.prodDen[m] = pm.den
				d.queue = append(d.queue, m)
			}
		}
	}

	// upd(n) = prod(n)/Δ(n) as a rational; scale all by LCM of denominators,
	// then divide by the overall GCD for the unique co-prime solution.
	var denLCM int64 = 1
	for _, id := range d.ids {
		den, ok := mul64(d.prodDen[id], dm.delta(&d.ns[id]))
		if !ok {
			return errUpdOverflow(id)
		}
		r := reduceRat(d.prodNum[id], den)
		d.updNum[id] = r.num
		d.updDen[id] = r.den
		if denLCM, ok = lcm64(denLCM, r.den); !ok {
			return fmt.Errorf("tiling: upd_num denominator overflow")
		}
	}
	var all int64
	for _, id := range d.ids {
		v, ok := mul64(d.updNum[id], denLCM/d.updDen[id])
		if !ok {
			return fmt.Errorf("tiling: upd_num denominator overflow")
		}
		d.updNum[id] = v // reuse as the scaled integer value
		all = gcd64(all, v)
	}
	if all == 0 {
		all = 1
	}
	for _, id := range d.ids {
		dm.setUpd(&d.ns[id], d.updNum[id]/all)
	}
	return nil
}

// errUpdOverflow is stage 3's error for a rational product that does not fit
// in an int64.
func errUpdOverflow(id int) error {
	return fmt.Errorf("tiling: update-rate overflow at node %d", id)
}

// isPredCSR reports whether u is a producer of v, via the CSR view.
func isPredCSR(g *graph.Graph, u, v int) bool {
	for _, p := range g.PredIDs(v) {
		if int(p) == u {
			return true
		}
	}
	return false
}

// Derive runs the flow and materializes a standalone *Scheme (the same
// result Derive returns). The returned scheme does not alias the scratch.
func (d *Deriver) Derive(members []int) (*Scheme, error) {
	if err := d.derive(members); err != nil {
		return nil, err
	}
	s := &Scheme{Nodes: make(map[int]*NodeScheme, len(d.ids))}
	for _, id := range d.ids {
		ns := d.ns[id]
		s.Nodes[id] = &ns
		if d.member.Has(id) {
			s.Order = append(s.Order, id)
		}
	}
	return s, nil
}

// TotalFootprint derives the subgraph's scheme into the scratch buffers and
// returns the summed activation footprint (Scheme.TotalFootprintBytes)
// without materializing a Scheme — the evaluator's allocation-free cold path.
func (d *Deriver) TotalFootprint(members []int) (int64, error) {
	if err := d.derive(members); err != nil {
		return 0, err
	}
	var t int64
	for _, id := range d.ids {
		t += d.ns[id].Main + d.ns[id].Side
	}
	return t, nil
}

// sortInts is an insertion sort for the universe id slices, which are small
// (members + their producers) and nearly sorted already — members arrive
// ascending and each external producer is appended near its consumers — so
// insertion sort beats the general-purpose sort.Ints on this input shape.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
