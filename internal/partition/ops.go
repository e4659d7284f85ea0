package partition

// The dense mutation workspace. TryModifyNode/TrySplit/TryMerge used to pay a
// full Clone plus a map-heavy repair+normalize per candidate: O(V·S) Members
// scans to find each subgraph's members, a map-based node set per multi-node
// subgraph for the connectivity split, per-label maps for the quotient
// adjacency, and an O(n²) ready-selection in Kahn's algorithm. Ops replaces
// all of it with flat counting-sorted buffers, epoch-stamped graph.Marks
// sets and graph.AppendComponent's walk, reused across calls, and the *Into
// operator variants write into a pooled destination partition so a rejected
// candidate costs no allocation at all. Results are bit-identical to the
// historical implementation: the final labels of repair+normalize depend
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

// errCyclic is the unschedulable-quotient rejection. A sentinel (not a fresh
// fmt.Errorf) so the mutation operators' common failure path allocates
// nothing: the GA probes many cyclic merges per generation.
var errCyclic = errors.New("partition: quotient graph is cyclic (unschedulable)")

// Ops is a reusable dense scratch workspace for the partition mutation path:
// member-CSR buffers, connectivity/visited Marks, the flat quotient-adjacency
// builder, and the Kahn ready-heap. A zero-value-ish Ops from NewOps grows
// its buffers on demand, so one workspace serves graphs (and label spaces) of
// any size.
//
// An Ops is not safe for concurrent use; pool one per goroutine (the package
// keeps an internal pool behind the Try* wrappers). The single-writer rule of
// Partition extends to Ops: the destination partition an *Into call produces
// is owned by the caller and must not be mutated concurrently.
type Ops struct {
	// Member CSR over subgraph labels: memIDs[memOff[s]:memOff[s+1]] are the
	// node ids of label s in ascending order. cnt doubles as the counting-sort
	// count/cursor buffer.
	cnt    []int32
	memOff []int32
	memIDs []int32

	inSub   *graph.Marks // node membership of the label being processed
	visited *graph.Marks // component-walk visited set / general node scratch
	labels  *graph.Marks // label-space scratch set (edge dedup, CrossEdges)
	stack   []int32      // component-walk worklist (graph.AppendComponent)

	// normalize scratch.
	denseOf []int32 // old label → dense index (-1 = unseen)
	minNode []int32 // dense label → smallest member node id
	newID   []int32 // dense label → final schedule label
	indeg   []int32
	edgeSrc []int32 // quotient cross-edge multiset (pre-dedup)
	edgeDst []int32
	qOff    []int32 // deduped quotient CSR: qAdj[qOff[s]:qEnd[s]]
	qEnd    []int32
	qAdj    []int32
	heap    []int32 // ready min-heap of dense labels keyed by minNode

	members []int // member list scratch (error paths, Validate)

	spare *Partition // recycled destination for the Try* wrappers
}

// NewOps returns an empty workspace. Buffers are grown lazily to fit the
// graphs it is used on.
func NewOps() *Ops {
	return &Ops{
		inSub:   graph.NewMarks(0),
		visited: graph.NewMarks(0),
		labels:  graph.NewMarks(0),
	}
}

// opsPool backs the Try* wrappers (and Validate/From/CrossEdges) so the
// public API stays allocation-lean without threading a workspace through
// every caller.
var opsPool = sync.Pool{New: func() any { return NewOps() }}

func getOps() *Ops  { return opsPool.Get().(*Ops) }
func putOps(o *Ops) { opsPool.Put(o) }

// ensure sizes the workspace for a graph of n nodes and labels in [0, lab).
func (o *Ops) ensure(n, lab int) {
	o.inSub.Grow(n)
	o.visited.Grow(n)
	o.labels.Grow(lab)
	if cap(o.cnt) < lab {
		o.cnt = make([]int32, lab)
		o.denseOf = make([]int32, lab)
		o.minNode = make([]int32, lab)
		o.newID = make([]int32, lab)
		o.indeg = make([]int32, lab)
		o.qOff = make([]int32, lab+1)
		o.qEnd = make([]int32, lab)
	}
	if cap(o.memOff) < lab+1 {
		o.memOff = make([]int32, lab+1)
	}
	if cap(o.memIDs) < n {
		o.memIDs = make([]int32, n)
		o.stack = make([]int32, 0, n)
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
	dst.hash = 0 // set by normalize on success
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
	src := p.assign[u]
	q, owned := o.takeDst(dst, p)
	q.assign[u] = target
	if target == p.count {
		q.count++
	}
	if err := o.repair(q); err != nil {
		o.keepDst(q, owned)
		return nil, err
	}
	o.carry(q, p, src, target)
	return q, nil
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
	o.ensure(len(p.assign), labelSpace(p))
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
	if err := o.repair(q); err != nil {
		o.keepDst(q, owned)
		return nil, err
	}
	o.carry(q, p, s, s)
	return q, nil
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
	if err := o.repair(q); err != nil {
		o.keepDst(q, owned)
		return nil, err
	}
	o.carry(q, p, a, b)
	return q, nil
}

// labelSpace bounds the label ids repair can produce for a partition derived
// from p: the starting labels (count, +1 for a fresh modify-node target, +V
// for split parts) plus at most one new label per node from the connectivity
// split.
func labelSpace(p *Partition) int { return p.count + 2*len(p.assign) + 2 }

// carry copies the key/cost caches from parent p into q for every subgraph
// whose member set is provably unchanged — the single-pass equivalent of the
// historical carryFrom: untouched parent labels keep exactly their members,
// so the new label is found through any member node. t1/t2 are the parent
// labels the operator touched (pass the same label twice for one).
func (o *Ops) carry(q, p *Partition, t1, t2 int) {
	if p.keys == nil && p.costs == nil {
		q.keys, q.costs = nil, nil
		return
	}
	q.keys = growStrings(q.keys, q.count)
	q.costs = growAnys(q.costs, q.count)
	for id, a := range p.assign {
		if a < 0 || a == t1 || a == t2 {
			continue
		}
		n := q.assign[id]
		if p.keys != nil {
			q.keys[n] = p.keys[a]
		}
		if p.costs != nil {
			q.costs[n] = p.costs[a]
		}
	}
}

func growStrings(s []string, n int) []string {
	if cap(s) < n {
		return make([]string, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = ""
	}
	return s
}

func growAnys(s []any, n int) []any {
	if cap(s) < n {
		return make([]any, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

// buildMemberCSR counting-sorts the assignment into the workspace member CSR
// for labels [0, next). Members are ascending within each label because node
// ids are scanned in order.
func (o *Ops) buildMemberCSR(assign []int, next int) {
	cnt := o.cnt[:next]
	for i := range cnt {
		cnt[i] = 0
	}
	for _, a := range assign {
		if a >= 0 {
			cnt[a]++
		}
	}
	off := o.memOff[:next+1]
	total := int32(0)
	for s := 0; s < next; s++ {
		off[s] = total
		total += cnt[s]
	}
	off[next] = total
	cur := cnt // reuse as cursor: cur[s] = next write slot for label s
	for s := 0; s < next; s++ {
		cur[s] = off[s]
	}
	ids := o.memIDs[:total]
	for id, a := range assign {
		if a >= 0 {
			ids[cur[a]] = int32(id)
			cur[a]++
		}
	}
}

// repair makes q valid if possible: split disconnected subgraphs into weakly
// connected components, then renumber via the quotient topological order.
// Returns an error only if the quotient graph is cyclic. Dense reimplementation
// of the historical repair: identical grouping, hence identical final labels.
func (o *Ops) repair(q *Partition) error {
	assign := q.assign
	next := 0
	for _, a := range assign {
		if a >= next {
			next = a + 1
		}
	}
	o.ensure(len(assign), next+len(assign)+1)
	o.buildMemberCSR(assign, next)

	// Labels split off below are weakly connected components by construction,
	// so only the original label range needs a connectivity pass (the retired
	// code rescanned the fresh labels too, as a no-op).
	g := q.g
	next0 := next
	for s := 0; s < next0; s++ {
		ms := o.memIDs[o.memOff[s]:o.memOff[s+1]]
		if len(ms) <= 1 {
			continue
		}
		o.inSub.Reset()
		for _, id := range ms {
			o.inSub.Set(int(id))
		}
		o.visited.Reset()
		// Walk each weakly connected component from its smallest member. The
		// first (from ms[0]) keeps label s; later ones are split off under
		// fresh labels.
		for _, id := range ms {
			if o.visited.Has(int(id)) {
				continue
			}
			o.stack = g.AppendComponent(o.stack[:0], int(id), o.inSub, o.visited)
			if id == ms[0] {
				continue
			}
			for _, v := range o.stack {
				assign[v] = next
			}
			next++
		}
	}
	q.count = next
	return o.normalize(q)
}

// normalize renumbers q's subgraphs into schedule order: dense-relabel, flat
// deduped quotient adjacency (counting sort), and Kahn's algorithm with the
// ready set as a min-heap keyed by each subgraph's smallest node id — the
// exact historical tie-break (keys are distinct, so the order is unique).
// Returns an error if the quotient graph is cyclic.
func (o *Ops) normalize(q *Partition) error {
	assign := q.assign
	lab := q.count
	o.ensure(len(assign), lab+1)

	// Old label → dense index, in node-scan order; minNode[d] is the smallest
	// node id of dense label d (the first one seen, since ids ascend).
	denseOf := o.denseOf[:lab]
	for i := range denseOf {
		denseOf[i] = -1
	}
	n := 0
	minNode := o.minNode[:lab]
	for id, a := range assign {
		if a >= 0 && denseOf[a] < 0 {
			denseOf[a] = int32(n)
			minNode[n] = int32(id)
			n++
		}
	}

	// Quotient cross edges, duplicates included.
	g := q.g
	es, ed := o.edgeSrc[:0], o.edgeDst[:0]
	for _, u := range g.ComputeIDs() {
		su := denseOf[assign[u]]
		for _, v := range g.SuccIDs(u) {
			av := assign[int(v)]
			if av < 0 {
				continue
			}
			if sv := denseOf[av]; sv != su {
				es = append(es, su)
				ed = append(ed, sv)
			}
		}
	}
	o.edgeSrc, o.edgeDst = es, ed

	// Counting-sort the edges by source, then dedup each bucket in place with
	// the label-space Marks while counting in-degrees.
	cnt := o.cnt[:n]
	for i := range cnt {
		cnt[i] = 0
	}
	for _, s := range es {
		cnt[s]++
	}
	qOff := o.qOff[:n+1]
	total := int32(0)
	for s := 0; s < n; s++ {
		qOff[s] = total
		total += cnt[s]
	}
	qOff[n] = total
	if cap(o.qAdj) < int(total) {
		o.qAdj = make([]int32, total)
	}
	qAdj := o.qAdj[:total]
	for s := 0; s < n; s++ {
		cnt[s] = qOff[s]
	}
	for i, s := range es {
		qAdj[cnt[s]] = ed[i]
		cnt[s]++
	}
	indeg := o.indeg[:n]
	for i := range indeg {
		indeg[i] = 0
	}
	qEnd := o.qEnd[:n]
	for s := 0; s < n; s++ {
		o.labels.Reset()
		w := qOff[s]
		for i := qOff[s]; i < qOff[s+1]; i++ {
			t := qAdj[i]
			if !o.labels.Has(int(t)) {
				o.labels.Set(int(t))
				qAdj[w] = t
				w++
				indeg[t]++
			}
		}
		qEnd[s] = w
	}

	// Kahn with the min-heap ready set.
	o.heap = o.heap[:0]
	for s := 0; s < n; s++ {
		if indeg[s] == 0 {
			o.heapPush(int32(s))
		}
	}
	newID := o.newID[:n]
	done := 0
	for len(o.heap) > 0 {
		s := o.heapPop()
		newID[s] = int32(done)
		done++
		for i := qOff[s]; i < qEnd[s]; i++ {
			t := qAdj[i]
			indeg[t]--
			if indeg[t] == 0 {
				o.heapPush(t)
			}
		}
	}
	if done != n {
		return errCyclic
	}
	// Final relabel; the AssignHash cache is folded in here for free (the
	// loop already touches every entry).
	h := uint64(hashOffset)
	for id, a := range assign {
		if a < 0 {
			assign[id] = Unassigned
			h = (h ^ 0xFFFFFFFF) * hashPrime // uint32(Unassigned)
		} else {
			v := int(newID[denseOf[a]])
			assign[id] = v
			h = (h ^ uint64(uint32(v))) * hashPrime
		}
	}
	q.count = n
	q.hash = h
	return nil
}

// heapPush/heapPop maintain the ready min-heap over dense labels, ordered by
// minNode (distinct per label, so ordering is total).
func (o *Ops) heapPush(s int32) {
	h := append(o.heap, s)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if o.minNode[h[parent]] <= o.minNode[h[i]] {
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
		if l < len(h) && o.minNode[h[l]] < o.minNode[h[small]] {
			small = l
		}
		if r < len(h) && o.minNode[h[r]] < o.minNode[h[small]] {
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

// validate is the dense Validate: precedence over the CSR adjacency, then
// per-subgraph emptiness and weak connectivity via the member CSR and Marks.
// Error cases and ordering match the historical map-based implementation.
func (o *Ops) validate(p *Partition) error {
	g := p.g
	for _, u := range g.ComputeIDs() {
		for _, v := range g.SuccIDs(u) {
			if p.assign[int(v)] == Unassigned {
				continue
			}
			if p.assign[u] > p.assign[int(v)] {
				return fmt.Errorf("partition: edge %d->%d violates precedence (P=%d > %d)",
					u, int(v), p.assign[u], p.assign[int(v)])
			}
		}
	}
	o.ensure(len(p.assign), p.count+1)
	o.buildMemberCSR(p.assign, p.count)
	for s := 0; s < p.count; s++ {
		ms := o.memIDs[o.memOff[s]:o.memOff[s+1]]
		if len(ms) == 0 {
			return fmt.Errorf("partition: subgraph %d empty", s)
		}
		if len(ms) == 1 {
			continue
		}
		o.inSub.Reset()
		for _, id := range ms {
			o.inSub.Set(int(id))
		}
		o.visited.Reset()
		o.stack = g.AppendComponent(o.stack[:0], int(ms[0]), o.inSub, o.visited)
		if len(o.stack) != len(ms) {
			o.members = p.AppendMembers(o.members[:0], s)
			return fmt.Errorf("partition: subgraph %d not connected: %v", s, o.members)
		}
	}
	return nil
}
