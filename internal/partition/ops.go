package partition

// The dense mutation workspace. TryModifyNode/TrySplit/TryMerge used to pay a
// full Clone plus a map-heavy repair and renumbering per candidate: O(V·S)
// Members scans to find each subgraph's members, a map-based node set per
// multi-node subgraph for the connectivity split, per-label maps for the
// quotient adjacency, and an O(n²) ready-selection in Kahn's algorithm. Ops
// replaces all of it with one schedule pass over flat buffers, epoch-stamped
// graph.Marks sets and graph.AppendComponent's walk, reused across calls,
// and the *Into operator variants write into a pooled destination partition
// so a rejected candidate costs no allocation at all. Results are
// bit-identical to the historical implementation: the final labels depend
// only on the resulting node grouping (the Kahn tie-break keys — each
// subgraph's smallest node id — are distinct, so the schedule order is
// unique), and the oracle equivalence suite in oracle_test.go pins this
// against the retired map-based code.

import (
	"errors"
	"fmt"
	"sync"

	"cocco/internal/graph"
)

// errCyclic and errDisconnected are the schedule pass's rejections.
// Sentinels (not fresh fmt.Errorf values) so the failure paths allocate
// nothing: the GA probes many cyclic merges per generation, and crossover
// hands From many disconnected labelings.
var (
	errCyclic       = errors.New("partition: quotient graph is cyclic (unschedulable)")
	errDisconnected = errors.New("partition: a subgraph is not connected")
)

// Ops is a reusable dense scratch workspace for the partition mutation path:
// the member CSR, the component buffers, connectivity/visited Marks, and the
// Kahn ready-heap. A zero-value-ish Ops from NewOps grows its buffers on
// demand, so one workspace serves graphs (and label spaces) of any size.
//
// An Ops is not safe for concurrent use; pool one per goroutine (the package
// keeps an internal pool behind the Try* wrappers). The destination partition
// an *Into call produces is owned by the caller and must not be mutated
// concurrently; the source partition is only read.
type Ops struct {
	// Member CSR over subgraph labels: memIDs[memOff[s]:memOff[s+1]] are the
	// node ids of label s in ascending order.
	memOff []int32
	memIDs []int32

	// Weakly connected components of every label: comps[compOff[c]:
	// compOff[c+1]] are the members of component c, its smallest node
	// first; compOf maps a compute node to its component.
	comps   []int32
	compOff []int32
	compOf  []int32

	inSub   *graph.Marks // members of the label being walked
	visited *graph.Marks // component-walk visited set / SplitInto's claimed nodes

	indeg []int32 // per component, duplicate cross edges included
	heap  []int32 // Kahn ready set: the smallest node of each ready component

	spare *Partition // recycled destination for the Try* wrappers
}

// NewOps returns an empty workspace. Buffers are grown lazily to fit the
// graphs it is used on.
func NewOps() *Ops {
	return &Ops{inSub: graph.NewMarks(0), visited: graph.NewMarks(0)}
}

// opsPool backs the Try* wrappers (and Validate/From) so the public API
// stays allocation-lean without threading a workspace through every caller.
var opsPool = sync.Pool{New: func() any { return NewOps() }}

func getOps() *Ops  { return opsPool.Get().(*Ops) }
func putOps(o *Ops) { opsPool.Put(o) }

// ensure sizes the workspace for a graph of n nodes and labels in [0, lab).
func (o *Ops) ensure(n, lab int) {
	o.inSub.Grow(n)
	o.visited.Grow(n)
	if cap(o.memOff) < lab+1 {
		o.memOff = make([]int32, lab+1)
	}
	if cap(o.memIDs) < n {
		o.memIDs = make([]int32, n)
		o.compOf = make([]int32, n)
		o.indeg = make([]int32, n)
	}
}

// takeDst returns a destination partition primed with p's graph, assignment,
// and count — the caller's dst if non-nil, else the recycled spare, else a
// fresh allocation. owned reports whether the destination belongs to the
// workspace (spare/fresh): only owned destinations may be recycled into
// o.spare on failure — a caller-supplied dst is still referenced by the
// caller, and keeping it would let a later *Into(nil, ...) hand out an
// aliased partition.
func (o *Ops) takeDst(dst, p *Partition) (q *Partition, owned bool) {
	if dst == nil {
		owned = true
		dst = o.spare
		o.spare = nil
	}
	if dst == nil {
		dst = &Partition{}
	}
	dst.g = p.g
	dst.assign = append(dst.assign[:0], p.assign...)
	dst.count = p.count
	dst.hash = 0 // set by schedule on success
	return dst, owned
}

// keepDst recycles a workspace-owned destination whose operation failed, so
// the next Try* through this workspace reuses its buffers.
func (o *Ops) keepDst(dst *Partition, owned bool) {
	if owned && o.spare == nil {
		o.spare = dst
	}
}

// ModifyNodeInto is the in-place TryModifyNode: it writes the repaired result
// into dst (reusing its buffers; pass nil to allocate) and returns it. dst
// must not be p or otherwise alias it. On error dst's previous contents are
// lost but its buffers stay reusable.
func (o *Ops) ModifyNodeInto(dst, p *Partition, u, target int) (*Partition, error) {
	if p.assign[u] == Unassigned {
		return nil, fmt.Errorf("partition: cannot move input node %d", u)
	}
	if target < 0 || target > p.count {
		return nil, fmt.Errorf("partition: target subgraph %d out of range", target)
	}
	q, owned := o.takeDst(dst, p)
	q.assign[u] = target
	if target == p.count {
		q.count++
	}
	return o.finish(q, owned)
}

// SplitInto is the in-place TrySplit; same destination contract as
// ModifyNodeInto.
func (o *Ops) SplitInto(dst, p *Partition, s int, parts [][]int) (*Partition, error) {
	members := 0
	for _, a := range p.assign {
		if a == s {
			members++
		}
	}
	o.visited.Grow(len(p.assign))
	o.visited.Reset() // nodes already claimed by a part
	total := 0
	for _, part := range parts {
		for _, id := range part {
			if p.assign[id] != s {
				return nil, fmt.Errorf("partition: node %d not in subgraph %d", id, s)
			}
			if o.visited.Has(id) {
				return nil, fmt.Errorf("partition: node %d in multiple parts", id)
			}
			o.visited.Set(id)
			total++
		}
	}
	if total != members {
		return nil, fmt.Errorf("partition: parts cover %d of %d members", total, members)
	}
	q, owned := o.takeDst(dst, p)
	for i, part := range parts {
		label := s
		if i > 0 {
			label = q.count
			q.count++
		}
		for _, id := range part {
			q.assign[id] = label
		}
	}
	return o.finish(q, owned)
}

// MergeInto is the in-place TryMerge; same destination contract as
// ModifyNodeInto.
func (o *Ops) MergeInto(dst, p *Partition, a, b int) (*Partition, error) {
	if a == b {
		return nil, fmt.Errorf("partition: merging subgraph %d with itself", a)
	}
	if a >= p.count || b >= p.count || a < 0 || b < 0 {
		return nil, fmt.Errorf("partition: merge ids out of range")
	}
	q, owned := o.takeDst(dst, p)
	for id, s := range q.assign {
		if s == b {
			q.assign[id] = a
		}
	}
	return o.finish(q, owned)
}

// finish repairs an operator's destination: every component of its labels
// becomes a subgraph, numbered in schedule order. A rejected destination
// goes back to the workspace if it owns it.
func (o *Ops) finish(q *Partition, owned bool) (*Partition, error) {
	if err := o.schedule(q, true); err != nil {
		o.keepDst(q, owned)
		return nil, err
	}
	return q, nil
}

// components walks the weakly connected components of every label of q in
// [0, q.count) into o.comps, label by label, each from its smallest
// unvisited member, so component c starts with its smallest node. Empty
// labels yield no component. Without split it stops at the first label
// with a second component and returns that label; otherwise it returns -1.
func (o *Ops) components(q *Partition, split bool) int {
	assign, lab := q.assign, q.count
	o.ensure(len(assign), lab)

	// Counting-sort the assignment into the member CSR: off[s] counts, then
	// ends, and filling from the highest node id down leaves it at the start
	// of label s with the members ascending.
	off := o.memOff[:lab+1]
	clear(off)
	for _, a := range assign {
		if a >= 0 {
			off[a]++
		}
	}
	end := int32(0)
	for s, n := range off {
		end += n
		off[s] = end
	}
	for id := len(assign) - 1; id >= 0; id-- {
		if a := assign[id]; a >= 0 {
			off[a]--
			o.memIDs[off[a]] = int32(id)
		}
	}

	g := q.g
	o.comps, o.compOff = o.comps[:0], append(o.compOff[:0], 0)
	o.visited.Reset()
	for s := range lab {
		ms := o.memIDs[off[s]:off[s+1]]
		if len(ms) > 1 {
			o.inSub.Reset()
			for _, id := range ms {
				o.inSub.Set(int(id))
			}
		}
		for i, id := range ms {
			if o.visited.Has(int(id)) {
				continue
			}
			if i > 0 && !split {
				return s
			}
			c := int32(len(o.compOff) - 1)
			if len(ms) == 1 {
				o.comps = append(o.comps, id)
				o.compOf[id] = c
			} else {
				start := len(o.comps)
				o.comps = g.AppendComponent(o.comps, int(id), o.inSub, o.visited)
				for _, v := range o.comps[start:] {
					o.compOf[v] = c
				}
			}
			o.compOff = append(o.compOff, int32(len(o.comps)))
		}
	}
	return -1
}

// schedule makes q's components its subgraphs, numbered in schedule order:
// Kahn's algorithm over the graph's own edges between components, with the
// ready set a min-heap of each component's smallest node — the historical
// tie-break (keys are distinct, so the order is unique). No quotient graph
// is built: several edges from one component into another count that
// predecessor as often as they are later subtracted, so a component still
// becomes ready exactly when its last predecessor is popped. Without split
// a label with a second component is refused instead. Returns an error if
// a label is disconnected (without split) or the components' quotient is
// cyclic.
func (o *Ops) schedule(q *Partition, split bool) error {
	if o.components(q, split) >= 0 {
		return errDisconnected
	}
	g := q.g
	nc := len(o.compOff) - 1
	// Every successor of a compute node is a compute node (inputs have no
	// producers), so compOf covers each edge's consumer.
	indeg := o.indeg[:nc]
	clear(indeg)
	for c := range int32(nc) {
		for _, u := range o.comps[o.compOff[c]:o.compOff[c+1]] {
			for _, v := range g.SuccIDs(int(u)) {
				if d := o.compOf[v]; d != c {
					indeg[d]++
				}
			}
		}
	}
	o.heap = o.heap[:0]
	for c := range nc {
		if indeg[c] == 0 {
			o.heapPush(o.comps[o.compOff[c]])
		}
	}
	// Popping a component labels its members: the labels the walk read
	// are no longer needed.
	done := 0
	for len(o.heap) > 0 {
		c := o.compOf[o.heapPop()]
		for _, u := range o.comps[o.compOff[c]:o.compOff[c+1]] {
			q.assign[u] = done
			for _, v := range g.SuccIDs(int(u)) {
				if d := o.compOf[v]; d != c {
					if indeg[d]--; indeg[d] == 0 {
						o.heapPush(o.comps[o.compOff[d]])
					}
				}
			}
		}
		done++
	}
	if done != nc {
		return errCyclic
	}
	// Cache AssignHash while the assignment is hot (Unassigned folds as
	// 0xFFFFFFFF).
	h := uint64(hashOffset)
	for _, a := range q.assign {
		h = (h ^ uint64(uint32(a))) * hashPrime
	}
	q.count = nc
	q.hash = h
	return nil
}

// heapPush/heapPop maintain the Kahn ready set as a min-heap of node ids.
func (o *Ops) heapPush(v int32) {
	h := append(o.heap, v)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	o.heap = h
}

func (o *Ops) heapPop() int32 {
	h := o.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	o.heap = h
	return top
}
