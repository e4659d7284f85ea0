// Package graph provides the computation-graph substrate used throughout the
// Cocco reproduction: a directed acyclic graph whose vertices are DNN layers
// and whose edges are tensor dependencies (the output of layer u is an input
// of layer v).
//
// The package is deliberately free of any cost or hardware knowledge; it only
// knows shapes, operator kinds, and structure. Everything else (tiling,
// memory, cost, search) is layered on top.
package graph

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// OpKind identifies the operator class of a layer. Following the paper
// (§5.1.1), fully-connected layers are lowered to 1×1 convolutions and
// pooling / element-wise layers are analyzed as depth-wise convolutions
// without weights, so a small operator vocabulary suffices.
type OpKind int

const (
	// OpInput is an external input tensor (the paper's negative-numbered
	// nodes). It carries no computation and no weights.
	OpInput OpKind = iota
	// OpConv is a standard 2D convolution with weights.
	OpConv
	// OpDWConv is a depth-wise convolution (per-channel), with weights.
	OpDWConv
	// OpPool is a pooling layer, modeled as a weight-less depth-wise conv.
	OpPool
	// OpEltwise is an element-wise layer (add, mul, concat-free residual
	// join), modeled as a weight-less 1×1/1 depth-wise op over its inputs.
	OpEltwise
	// OpConcat is a channel-dimension concatenation (GoogleNet, NasNet,
	// RandWire joins). Weight-less; output channels are the sum of inputs.
	OpConcat
	// OpMatmul is a dense matrix multiply (Transformer/GPT projections and
	// attention), lowered to a 1×1 convolution over the sequence dimension.
	OpMatmul
)

// opKindNames is the one table of op-kind names: String prints them,
// ParseOpKind reads them, and the graph wire format (internal/serialize)
// stores them.
var opKindNames = [...]string{
	OpInput:   "input",
	OpConv:    "conv",
	OpDWConv:  "dwconv",
	OpPool:    "pool",
	OpEltwise: "eltwise",
	OpConcat:  "concat",
	OpMatmul:  "matmul",
}

func (k OpKind) String() string {
	if k >= 0 && int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// ParseOpKind is the inverse of OpKind.String: "input", "conv", "dwconv",
// "pool", "eltwise", "concat" or "matmul". Any other name is an error.
func ParseOpKind(s string) (OpKind, error) {
	for k, name := range opKindNames {
		if s == name {
			return OpKind(k), nil
		}
	}
	return 0, fmt.Errorf("graph: unknown op kind %q", s)
}

// HasWeights reports whether layers of this kind carry weight tensors.
func (k OpKind) HasWeights() bool {
	return k == OpConv || k == OpDWConv || k == OpMatmul
}

// Node is a single layer of the model. All spatial sizes refer to the layer's
// OUTPUT tensor; the kernel/stride pair describes how the layer consumes its
// input(s). Bit-width is 8 bits (1 byte) per element, matching the Simba-like
// platform in the paper.
type Node struct {
	// ID is the node's index in Graph.Nodes. Assigned by the Builder.
	ID int
	// Name is a human-readable layer name (unique within a graph).
	Name string
	// Kind is the operator class.
	Kind OpKind

	// KernelH/KernelW and StrideH/StrideW describe the consumption pattern
	// (F and s in the paper's notation). For 1×1 lowerings both kernels and
	// strides are 1.
	KernelH, KernelW int
	StrideH, StrideW int

	// InC is the number of input channels consumed from each predecessor;
	// OutC the number of output channels produced.
	InC, OutC int

	// OutH and OutW are the output feature-map height and width.
	OutH, OutW int
}

// InH returns the input height this node requires, derived from the output
// height via f(x) = F + (x-1)*s (the paper's f_v).
func (n *Node) InH() int { return n.KernelH + (n.OutH-1)*n.StrideH }

// InW returns the input width this node requires.
func (n *Node) InW() int { return n.KernelW + (n.OutW-1)*n.StrideW }

// OutBytes returns the size of the node's output tensor in bytes
// (8-bit elements).
func (n *Node) OutBytes() int64 {
	return int64(n.OutH) * int64(n.OutW) * int64(n.OutC)
}

// WeightBytes returns the size of the node's weight tensor in bytes.
// Weight-less kinds return 0. Depth-wise convolutions carry K×K×C weights;
// dense convolutions and matmuls carry K×K×InC×OutC.
func (n *Node) WeightBytes() int64 {
	switch n.Kind {
	case OpConv, OpMatmul:
		return int64(n.KernelH) * int64(n.KernelW) * int64(n.InC) * int64(n.OutC)
	case OpDWConv:
		return int64(n.KernelH) * int64(n.KernelW) * int64(n.OutC)
	default:
		return 0
	}
}

// MACs returns the number of multiply-accumulate operations this node
// performs for one inference.
func (n *Node) MACs() int64 {
	spatial := int64(n.OutH) * int64(n.OutW)
	kk := int64(n.KernelH) * int64(n.KernelW)
	switch n.Kind {
	case OpConv, OpMatmul:
		return spatial * kk * int64(n.InC) * int64(n.OutC)
	case OpDWConv, OpPool, OpEltwise:
		return spatial * kk * int64(n.OutC)
	default:
		return 0
	}
}

// Graph is an immutable directed acyclic computation graph. Build one with a
// Builder; after Finalize the structure never changes, so the adjacency and
// per-node metadata can be shared freely across goroutines.
type Graph struct {
	// Name identifies the model (e.g. "resnet50").
	Name string

	nodes []*Node

	// Adjacency in compressed sparse row form: the producers of v are
	// pred[predOff[v]:predOff[v+1]] and the consumers of u are
	// succ[succOff[u]:succOff[u+1]], each run ascending.
	succ, pred       []int32
	succOff, predOff []int32

	// computeIDs caches ComputeNodes' result.
	computeIDs []int
}

// Len returns the number of nodes, including OpInput nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given id. It panics if id is out of range,
// consistent with slice indexing.
func (g *Graph) Node(id int) *Node { return g.nodes[id] }

// Nodes returns the underlying node slice. Callers must not mutate it.
func (g *Graph) Nodes() []*Node { return g.nodes }

// SuccIDs returns the consumer ids of node u in ascending order, as a view
// capped at its length. Callers must not mutate the returned slice.
func (g *Graph) SuccIDs(u int) []int32 {
	lo, hi := g.succOff[u], g.succOff[u+1]
	return g.succ[lo:hi:hi]
}

// PredIDs returns the producer ids of node v in ascending order, as a view
// capped at its length. Callers must not mutate the returned slice.
func (g *Graph) PredIDs(v int) []int32 {
	lo, hi := g.predOff[v], g.predOff[v+1]
	return g.pred[lo:hi:hi]
}

// ComputeIDs returns the cached ids of all non-input nodes in topological
// order — the same contents as ComputeNodes without the per-call allocation.
// Callers must not mutate the returned slice.
func (g *Graph) ComputeIDs() []int { return g.computeIDs }

// Edges returns the number of edges.
func (g *Graph) Edges() int { return len(g.succ) }

// ComputeNodes returns the ids of all non-input nodes in topological order.
// These are the nodes a partition assigns to subgraphs. The returned slice is
// a fresh copy the caller may mutate; hot paths should use ComputeIDs.
func (g *Graph) ComputeNodes() []int {
	return append([]int(nil), g.computeIDs...)
}

// Outputs returns the ids of nodes with no consumers (model outputs).
func (g *Graph) Outputs() []int {
	var out []int
	for id := range g.nodes {
		if g.succOff[id] == g.succOff[id+1] {
			out = append(out, id)
		}
	}
	return out
}

// Inputs returns the ids of OpInput nodes.
func (g *Graph) Inputs() []int {
	var in []int
	for _, n := range g.nodes {
		if n.Kind == OpInput {
			in = append(in, n.ID)
		}
	}
	return in
}

// TotalWeightBytes sums WeightBytes over all nodes.
func (g *Graph) TotalWeightBytes() int64 {
	var t int64
	for _, n := range g.nodes {
		t += n.WeightBytes()
	}
	return t
}

// TotalMACs sums MACs over all nodes.
func (g *Graph) TotalMACs() int64 {
	var t int64
	for _, n := range g.nodes {
		t += n.MACs()
	}
	return t
}

// AppendComponent appends to dst every node of start's weakly connected
// component within the set in (the nodes reachable from start over edges in
// either direction without leaving in), marks each in seen, and returns the
// extended slice. start must be in in and not in seen; nodes already in
// seen are neither entered nor crossed. The walk is breadth-first with the
// appended tail of dst as its worklist, so it allocates only when dst
// grows.
//
// It is the one connectivity test the paper's validity rule needs ("any
// subgraph should be connected in G, otherwise meaningless"): a set is
// connected exactly when one walk from any member appends all of it, and
// walks from each unseen member in turn split a set into its components.
func (g *Graph) AppendComponent(dst []int32, start int, in, seen *Marks) []int32 {
	seen.Set(start)
	dst = append(dst, int32(start))
	for head := len(dst) - 1; head < len(dst); head++ {
		u := int(dst[head])
		for _, run := range [2][]int32{g.SuccIDs(u), g.PredIDs(u)} {
			for _, v := range run {
				if in.Has(int(v)) && !seen.Has(int(v)) {
					seen.Set(int(v))
					dst = append(dst, v)
				}
			}
		}
	}
	return dst
}

// Builder constructs a Graph incrementally. It is not safe for concurrent
// use. A successful Finalize hands its storage to the Graph; after it,
// adding a node returns -1 and Finalize fails. Typical usage:
//
//	b := graph.NewBuilder("toy")
//	in := b.Input("in", 3, 224, 224)
//	c1 := b.Conv("c1", in, 64, 7, 2)
//	b.MustFinalize()
type Builder struct {
	name string
	// slabs hold the nodes, node id at slabs[id/slabNodes][id%slabNodes]. A
	// full slab is followed by a new one, never grown, so *Node pointers
	// stay valid as the builder grows.
	slabs [][]Node
	// names holds every node's name, concatenated in node order: node v's
	// ends at nameEnd[v], where node v-1's ends. No caller's string is kept,
	// so a name built by concatenation can stay on the caller's stack.
	names   []byte
	nameEnd []int32
	// preds holds every node's producer ids, concatenated in node order:
	// node v's are preds[predOff[v]:predOff[v+1]].
	preds   []int32
	predOff []int32
	err     error
}

// slabNodes is the number of nodes one slab holds: few slabs per zoo model,
// and a small empty tail in the last one.
const slabNodes = 32

// maxNodeSize caps each node's OutBytes, WeightBytes and MACs. It sits far
// above the zoo's largest node (4.8e9 MACs, 102.8 MB of weights) and leaves
// room in an int64 for sums over many such nodes.
const maxNodeSize = 1 << 48

// errFinalized is the sticky error a successful Finalize leaves behind.
var errFinalized = errors.New("graph: builder used after Finalize")

// NewBuilder returns an empty Builder for a graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, predOff: []int32{0}}
}

func (b *Builder) fail(format string, args ...any) int {
	if b.err == nil {
		b.err = fmt.Errorf("graph %q: %s", b.name, fmt.Sprintf(format, args...))
	}
	return -1
}

// len returns the number of nodes added so far.
func (b *Builder) len() int { return len(b.predOff) - 1 }

// node returns the stored node id, which must be in [0, b.len()).
func (b *Builder) node(id int) *Node { return &b.slabs[id/slabNodes][id%slabNodes] }

// nameOf copies node id's name out of the name buffer, for error messages.
func (b *Builder) nameOf(id int) string {
	var start int32
	if id > 0 {
		start = b.nameEnd[id-1]
	}
	return string(b.names[start:b.nameEnd[id]])
}

// addNode validates n, named name, and its producer ids, then stores n, the
// name and the producers. A rejected node leaves the builder unchanged apart
// from the recorded error. Duplicate names are found by Finalize. Error
// paths format a copy of name, never name itself: storing it anywhere would
// move every caller's name concatenation to the heap.
func (b *Builder) addNode(name string, n Node, from ...int) int {
	if b.err != nil {
		return -1
	}
	if name == "" {
		return b.fail("node with empty name")
	}
	if n.OutH <= 0 || n.OutW <= 0 || n.OutC <= 0 {
		return b.fail("node %q: non-positive output shape %dx%dx%d", strings.Clone(name), n.OutH, n.OutW, n.OutC)
	}
	if n.Kind == OpInput {
		if len(from) > 0 {
			return b.fail("node %q: input node with producers", strings.Clone(name))
		}
	} else {
		if n.KernelH <= 0 || n.KernelW <= 0 || n.StrideH <= 0 || n.StrideW <= 0 {
			return b.fail("node %q: non-positive kernel/stride", strings.Clone(name))
		}
		if n.InC <= 0 {
			return b.fail("node %q: non-positive input channels %d", strings.Clone(name), n.InC)
		}
		if len(from) == 0 {
			return b.fail("node %q: compute node without producers", strings.Clone(name))
		}
	}
	if !n.sizesFit() {
		return b.fail("node %q: output bytes, weight bytes or MACs above %d", strings.Clone(name), int64(maxNodeSize))
	}
	n.ID = b.len()
	for _, u := range from {
		if u < 0 || u >= n.ID {
			return b.fail("node %q: producer id %d out of range (must precede %d)", strings.Clone(name), u, n.ID)
		}
	}
	if n.ID%slabNodes == 0 {
		b.slabs = append(b.slabs, make([]Node, 0, slabNodes))
	}
	last := &b.slabs[len(b.slabs)-1]
	*last = append(*last, n)
	b.names = append(b.names, name...)
	b.nameEnd = append(b.nameEnd, int32(len(b.names)))
	for _, u := range from {
		b.preds = append(b.preds, int32(u))
	}
	b.predOff = append(b.predOff, int32(len(b.preds)))
	return n.ID
}

// sizesFit reports whether n's OutBytes, WeightBytes and MACs stay within
// maxNodeSize, computed without overflow. Every factor is positive here, so
// a kind's MACs product also bounds its OutBytes and WeightBytes.
func (n *Node) sizesFit() bool {
	switch n.Kind {
	case OpConv, OpMatmul:
		return sizeProduct(n.OutH, n.OutW, n.KernelH, n.KernelW, n.InC, n.OutC) >= 0
	case OpDWConv, OpPool, OpEltwise:
		return sizeProduct(n.OutH, n.OutW, n.KernelH, n.KernelW, n.OutC) >= 0
	default:
		return sizeProduct(n.OutH, n.OutW, n.OutC) >= 0
	}
}

// sizeProduct returns the product of the positive factors xs, or -1 if it
// exceeds maxNodeSize.
func sizeProduct(xs ...int) int64 {
	p := uint64(1)
	for _, x := range xs {
		hi, lo := bits.Mul64(p, uint64(x))
		if hi != 0 || lo > maxNodeSize {
			return -1
		}
		p = lo
	}
	return int64(p)
}

// Input adds an external input tensor of shape c×h×w and returns its id.
func (b *Builder) Input(name string, c, h, w int) int {
	return b.addNode(name, Node{Kind: OpInput, OutC: c, OutH: h, OutW: w,
		KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1, InC: c})
}

// Conv adds a k×k/stride convolution producing outC channels. The output
// spatial size is derived from the producer assuming "same"-style padding:
// out = ceil(in/stride). Returns the new node id.
func (b *Builder) Conv(name string, from int, outC, k, stride int) int {
	p := b.producer(from, name)
	if p == nil {
		return -1
	}
	return b.addNode(name, Node{Kind: OpConv,
		KernelH: k, KernelW: k, StrideH: stride, StrideW: stride,
		InC: p.OutC, OutC: outC,
		OutH: ceilDiv(p.OutH, stride), OutW: ceilDiv(p.OutW, stride)}, from)
}

// DWConv adds a depth-wise k×k/stride convolution (channels preserved).
func (b *Builder) DWConv(name string, from int, k, stride int) int {
	p := b.producer(from, name)
	if p == nil {
		return -1
	}
	return b.addNode(name, Node{Kind: OpDWConv,
		KernelH: k, KernelW: k, StrideH: stride, StrideW: stride,
		InC: p.OutC, OutC: p.OutC,
		OutH: ceilDiv(p.OutH, stride), OutW: ceilDiv(p.OutW, stride)}, from)
}

// Pool adds a k×k/stride pooling layer (weight-less depth-wise).
func (b *Builder) Pool(name string, from int, k, stride int) int {
	p := b.producer(from, name)
	if p == nil {
		return -1
	}
	return b.addNode(name, Node{Kind: OpPool,
		KernelH: k, KernelW: k, StrideH: stride, StrideW: stride,
		InC: p.OutC, OutC: p.OutC,
		OutH: ceilDiv(p.OutH, stride), OutW: ceilDiv(p.OutW, stride)}, from)
}

// GlobalPool adds a pooling layer that collapses the spatial dims to 1×1.
func (b *Builder) GlobalPool(name string, from int) int {
	p := b.producer(from, name)
	if p == nil {
		return -1
	}
	return b.addNode(name, Node{Kind: OpPool,
		KernelH: p.OutH, KernelW: p.OutW, StrideH: p.OutH, StrideW: p.OutW,
		InC: p.OutC, OutC: p.OutC, OutH: 1, OutW: 1}, from)
}

// Eltwise adds an element-wise join (e.g. residual add) of the producers.
// All producers must agree on output shape; the result preserves it.
func (b *Builder) Eltwise(name string, from ...int) int {
	if len(from) == 0 {
		return b.fail("eltwise %q: no producers", strings.Clone(name))
	}
	p0 := b.producer(from[0], name)
	if p0 == nil {
		return -1
	}
	for _, f := range from[1:] {
		p := b.producer(f, name)
		if p == nil {
			return -1
		}
		if p.OutH != p0.OutH || p.OutW != p0.OutW || p.OutC != p0.OutC {
			return b.fail("eltwise %q: shape mismatch %dx%dx%d vs %dx%dx%d from %q and %q",
				strings.Clone(name), p0.OutH, p0.OutW, p0.OutC, p.OutH, p.OutW, p.OutC, b.nameOf(from[0]), b.nameOf(f))
		}
	}
	return b.addNode(name, Node{Kind: OpEltwise,
		KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1,
		InC: p0.OutC, OutC: p0.OutC, OutH: p0.OutH, OutW: p0.OutW}, from...)
}

// Concat adds a channel-dimension concatenation of the producers, which must
// agree on spatial shape.
func (b *Builder) Concat(name string, from ...int) int {
	if len(from) == 0 {
		return b.fail("concat %q: no producers", strings.Clone(name))
	}
	p0 := b.producer(from[0], name)
	if p0 == nil {
		return -1
	}
	c := 0
	for _, f := range from {
		p := b.producer(f, name)
		if p == nil {
			return -1
		}
		if p.OutH != p0.OutH || p.OutW != p0.OutW {
			return b.fail("concat %q: spatial mismatch from %q and %q", strings.Clone(name), b.nameOf(from[0]), b.nameOf(f))
		}
		// Each producer's OutC is at most maxNodeSize, so checking the sum
		// as it grows keeps it from wrapping.
		if c += p.OutC; int64(c) > maxNodeSize {
			return b.fail("concat %q: output bytes above %d", strings.Clone(name), int64(maxNodeSize))
		}
	}
	return b.addNode(name, Node{Kind: OpConcat,
		KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1,
		InC: c, OutC: c, OutH: p0.OutH, OutW: p0.OutW}, from...)
}

// FC adds a fully-connected layer lowered to a 1×1 convolution over a 1×1
// spatial map (paper §5.1.1).
func (b *Builder) FC(name string, from int, outC int) int {
	p := b.producer(from, name)
	if p == nil {
		return -1
	}
	inC := p.OutC * p.OutH * p.OutW // flatten: the producer's OutBytes, within maxNodeSize
	return b.addNode(name, Node{Kind: OpConv,
		KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1,
		InC: inC, OutC: outC, OutH: 1, OutW: 1}, from)
}

// Matmul adds a dense projection over a sequence: the producer's output is
// treated as a seqLen×1 map with inC channels and the result has outC
// channels (1×1 conv lowering of Transformer/GPT projections).
func (b *Builder) Matmul(name string, from int, outC int) int {
	p := b.producer(from, name)
	if p == nil {
		return -1
	}
	return b.addNode(name, Node{Kind: OpMatmul,
		KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1,
		InC: p.OutC, OutC: outC, OutH: p.OutH, OutW: p.OutW}, from)
}

// MatmulJoin adds a dense op that reads two producers (e.g. attention
// score = Q·Kᵀ or context = scores·V) producing outC channels over the first
// producer's spatial map. Modeled as a 1×1 op whose MAC count uses the sum of
// producer channels as the reduction depth.
func (b *Builder) MatmulJoin(name string, a, c int, outC int) int {
	pa := b.producer(a, name)
	pc := b.producer(c, name)
	if pa == nil || pc == nil {
		return -1
	}
	return b.addNode(name, Node{Kind: OpMatmul,
		KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1,
		InC: pa.OutC + pc.OutC, OutC: outC, OutH: pa.OutH, OutW: pa.OutW}, a, c)
}

// Custom adds a node with fully explicit parameters, for tests and
// generators that need consumption patterns the shape-deriving helpers do
// not cover (e.g. a convolution reading several producers).
func (b *Builder) Custom(name string, kind OpKind, k, stride, inC, outC, outH, outW int, from ...int) int {
	return b.addNode(name, Node{Kind: kind,
		KernelH: k, KernelW: k, StrideH: stride, StrideW: stride,
		InC: inC, OutC: outC, OutH: outH, OutW: outW}, from...)
}

// OutShape returns the output channels/height/width of node id as built so
// far, for builders (e.g. cell-based generators) that need to align shapes.
// ok is false if id is out of range.
func (b *Builder) OutShape(id int) (c, h, w int, ok bool) {
	if id < 0 || id >= b.len() {
		return 0, 0, 0, false
	}
	n := b.node(id)
	return n.OutC, n.OutH, n.OutW, true
}

// producer returns node id for the consumer named consumer, or nil if the
// builder has failed or id is out of range (recording that error).
func (b *Builder) producer(id int, consumer string) *Node {
	if b.err != nil {
		return nil
	}
	if id < 0 || id >= b.len() {
		b.fail("node %q: producer id %d out of range", strings.Clone(consumer), id)
		return nil
	}
	return b.node(id)
}

// Err returns the first construction error, if any. Duplicate node names
// surface only at Finalize, which records them here too.
func (b *Builder) Err() error { return b.err }

// Finalize validates the graph and returns it as an immutable Graph that
// takes over the builder's storage. Acyclicity and reachability hold by
// construction: addNode only accepts producers that precede the node, and
// every compute node has one. Finalize additionally requires unique node
// names, failing the builder for good on a duplicate, and at least one
// compute node.
func (b *Builder) Finalize() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := b.len()
	if n == 0 {
		return nil, fmt.Errorf("graph %q: empty", b.name)
	}
	// One string holds every name; each Node.Name is a slice of it.
	names := string(b.names)
	nodes := make([]*Node, n)
	seen := make(map[string]struct{}, n)
	compute := 0
	var start int32
	for id := range nodes {
		nd := b.node(id)
		nd.Name, start = names[start:b.nameEnd[id]], b.nameEnd[id]
		if _, dup := seen[nd.Name]; dup {
			b.err = fmt.Errorf("graph %q: duplicate node name %q", b.name, nd.Name)
			return nil, b.err
		}
		seen[nd.Name] = struct{}{}
		if nd.Kind != OpInput {
			compute++
		}
		nodes[id] = nd
	}
	if compute == 0 {
		return nil, fmt.Errorf("graph %q: no compute nodes", b.name)
	}
	g := &Graph{Name: b.name, nodes: nodes, pred: b.preds, predOff: b.predOff}
	b.err = errFinalized
	for v := range nodes {
		slices.Sort(g.PredIDs(v))
	}
	g.buildIndexes(compute)
	return g, nil
}

// buildIndexes derives the consumer runs and the compute-node list from the
// sorted producer runs.
func (g *Graph) buildIndexes(compute int) {
	n, edges := len(g.nodes), len(g.pred)
	// One counting sort: succOff[u] first counts u's consumers, then, summed,
	// marks the end of u's run. Filling from the highest consumer down leaves
	// every run ascending and succOff[u] at its start.
	g.succOff = make([]int32, n+1)
	for _, u := range g.pred {
		g.succOff[u]++
	}
	for u := 1; u < n; u++ {
		g.succOff[u] += g.succOff[u-1]
	}
	g.succOff[n] = int32(edges)
	g.succ = make([]int32, edges)
	for v := n - 1; v >= 0; v-- {
		for _, u := range g.PredIDs(v) {
			g.succOff[u]--
			g.succ[g.succOff[u]] = int32(v)
		}
	}

	// Edges always point from lower to higher id, so id order is
	// topological.
	g.computeIDs = make([]int, 0, compute)
	for id, nd := range g.nodes {
		if nd.Kind != OpInput {
			g.computeIDs = append(g.computeIDs, id)
		}
	}
}

// MustFinalize is Finalize that panics on error; for use in model builders
// whose structure is fixed at compile time and covered by tests.
func (b *Builder) MustFinalize() *Graph {
	g, err := b.Finalize()
	if err != nil {
		panic(err)
	}
	return g
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
