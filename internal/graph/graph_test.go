package graph

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func diamond(t *testing.T) (*Graph, []int) {
	t.Helper()
	b := NewBuilder("diamond")
	in := b.Input("in", 3, 32, 32)
	c1 := b.Conv("c1", in, 16, 3, 1)
	l := b.Conv("l", c1, 16, 3, 1)
	r := b.Conv("r", c1, 16, 1, 1)
	add := b.Eltwise("add", l, r)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g, []int{in, c1, l, r, add}
}

// TestParseOpKindRoundTrip pins ParseOpKind as String's inverse over every
// kind, and that it refuses other names, String's fallback among them.
func TestParseOpKindRoundTrip(t *testing.T) {
	for k := OpInput; k <= OpMatmul; k++ {
		if got, err := ParseOpKind(k.String()); err != nil || got != k {
			t.Errorf("ParseOpKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, s := range []string{"", "Conv", "warp", OpKind(99).String()} {
		if _, err := ParseOpKind(s); err == nil {
			t.Errorf("ParseOpKind(%q) accepted", s)
		}
	}
}

func TestBuilderShapes(t *testing.T) {
	b := NewBuilder("shapes")
	in := b.Input("in", 3, 224, 224)
	c1 := b.Conv("c1", in, 64, 7, 2)
	p1 := b.Pool("p1", c1, 3, 2)
	d1 := b.DWConv("d1", p1, 3, 1)
	g := b.MustFinalize()

	n := g.Node(c1)
	if n.OutH != 112 || n.OutW != 112 || n.OutC != 64 {
		t.Errorf("conv shape = %dx%dx%d", n.OutH, n.OutW, n.OutC)
	}
	if got := g.Node(p1); got.OutH != 56 || got.OutC != 64 {
		t.Errorf("pool shape = %dx%d c=%d", got.OutH, got.OutW, got.OutC)
	}
	if got := g.Node(d1); got.OutC != 64 || got.Kind != OpDWConv {
		t.Errorf("dwconv = %+v", got)
	}
}

func TestNodeDerivedQuantities(t *testing.T) {
	n := &Node{Kind: OpConv, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2,
		InC: 16, OutC: 32, OutH: 10, OutW: 10}
	if got := n.WeightBytes(); got != 3*3*16*32 {
		t.Errorf("WeightBytes = %d", got)
	}
	if got := n.MACs(); got != 10*10*3*3*16*32 {
		t.Errorf("MACs = %d", got)
	}
	if got := n.OutBytes(); got != 10*10*32 {
		t.Errorf("OutBytes = %d", got)
	}
	if got := n.InH(); got != 3+9*2 {
		t.Errorf("InH = %d", got)
	}
	dw := &Node{Kind: OpDWConv, KernelH: 3, KernelW: 3, OutC: 32, OutH: 4, OutW: 4, StrideH: 1, StrideW: 1}
	if got := dw.WeightBytes(); got != 3*3*32 {
		t.Errorf("dw WeightBytes = %d", got)
	}
	pool := &Node{Kind: OpPool, KernelH: 2, KernelW: 2, OutC: 8, OutH: 4, OutW: 4, StrideH: 2, StrideW: 2}
	if pool.WeightBytes() != 0 {
		t.Error("pool should have no weights")
	}
	if pool.Kind.HasWeights() {
		t.Error("pool kind should not have weights")
	}
}

func TestGraphStructure(t *testing.T) {
	g, ids := diamond(t)
	in, c1, l, r, add := ids[0], ids[1], ids[2], ids[3], ids[4]

	if g.Len() != 5 {
		t.Fatalf("Len = %d", g.Len())
	}
	if g.Edges() != 5 {
		t.Errorf("Edges = %d", g.Edges())
	}
	if got := g.SuccIDs(c1); len(got) != 2 || int(got[0]) != l || int(got[1]) != r {
		t.Errorf("SuccIDs(c1) = %v", got)
	}
	if got := g.PredIDs(add); len(got) != 2 {
		t.Errorf("PredIDs(add) = %v", got)
	}
	if got := g.Outputs(); len(got) != 1 || got[0] != add {
		t.Errorf("Outputs = %v", got)
	}
	if got := g.Inputs(); len(got) != 1 || got[0] != in {
		t.Errorf("Inputs = %v", got)
	}
	if got := g.ComputeNodes(); len(got) != 4 {
		t.Errorf("ComputeNodes = %v", got)
	}
}

// TestTopoOrderRespectsEdges checks that id order is topological: every
// edge points from a lower id to a higher one.
func TestTopoOrderRespectsEdges(t *testing.T) {
	g, _ := diamond(t)
	for u := 0; u < g.Len(); u++ {
		for _, v := range g.SuccIDs(u) {
			if u >= int(v) {
				t.Errorf("edge %d->%d violates topological order", u, v)
			}
		}
	}
}

// components splits set into weakly connected components with
// AppendComponent, walking from each unvisited member in ascending order.
// Each component is returned sorted, so the components come out ordered by
// their smallest id.
func components(g *Graph, set []int) [][]int {
	in, seen := NewMarks(g.Len()), NewMarks(g.Len())
	for _, id := range set {
		in.Set(id)
	}
	var comps [][]int
	for _, id := range slices.Sorted(slices.Values(set)) {
		if seen.Has(id) {
			continue
		}
		var comp []int
		for _, v := range g.AppendComponent(nil, id, in, seen) {
			comp = append(comp, int(v))
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// connected reports whether set is non-empty and one walk covers it.
func connected(g *Graph, set []int) bool {
	return len(components(g, set)) == 1
}

func TestIsConnected(t *testing.T) {
	g, ids := diamond(t)
	_, c1, l, r, add := ids[0], ids[1], ids[2], ids[3], ids[4]

	cases := []struct {
		set  []int
		want bool
	}{
		{nil, false},
		{[]int{c1}, true},
		{[]int{c1, l}, true},
		{[]int{l, r}, false}, // siblings: connected only through c1 or add
		{[]int{l, r, add}, true},
		{[]int{c1, l, r, add}, true},
	}
	for _, c := range cases {
		if got := connected(g, c.set); got != c.want {
			t.Errorf("connected(%v) = %v, want %v", c.set, got, c.want)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g, ids := diamond(t)
	l, r := ids[2], ids[3]
	comps := components(g, []int{r, l})
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	if comps[0][0] != l || comps[1][0] != r {
		t.Errorf("components order = %v", comps)
	}
}

// TestAppendComponentKeepsPrefix pins the walk's buffer contract: it
// appends after what dst already holds, start first, and never enters a
// node already seen.
func TestAppendComponentKeepsPrefix(t *testing.T) {
	g, ids := diamond(t)
	c1, l, r, add := ids[1], ids[2], ids[3], ids[4]
	in, seen := NewMarks(g.Len()), NewMarks(g.Len())
	for _, id := range ids[1:] {
		in.Set(id)
	}
	seen.Set(r) // cuts c1-r-add; l still joins c1 and add
	got := g.AppendComponent([]int32{99}, add, in, seen)
	if want := []int32{99, int32(add), int32(l), int32(c1)}; !slices.Equal(got, want) {
		t.Errorf("AppendComponent = %v, want %v", got, want)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *Builder)
		want  string
	}{
		{"dup-name", func(b *Builder) {
			in := b.Input("x", 3, 8, 8)
			b.Conv("x", in, 4, 3, 1)
		}, "duplicate"},
		{"empty-name", func(b *Builder) { b.Input("", 3, 8, 8) }, "empty name"},
		{"bad-shape", func(b *Builder) { b.Input("in", 0, 8, 8) }, "non-positive output"},
		{"no-producer", func(b *Builder) {
			b.Custom("c", OpConv, 3, 1, 3, 4, 8, 8)
		}, "without producers"},
		{"bad-producer", func(b *Builder) {
			in := b.Input("in", 3, 8, 8)
			_ = in
			b.Custom("c", OpConv, 3, 1, 3, 4, 8, 8, 99)
		}, "out of range"},
		{"eltwise-mismatch", func(b *Builder) {
			in := b.Input("in", 3, 8, 8)
			a := b.Conv("a", in, 4, 3, 1)
			c := b.Conv("c", in, 4, 3, 2)
			b.Eltwise("e", a, c)
		}, `eltwise "e": shape mismatch 8x8x4 vs 4x4x4 from "a" and "c"`},
		{"concat-mismatch", func(b *Builder) {
			in := b.Input("in", 3, 8, 8)
			a := b.Conv("a", in, 4, 3, 1)
			c := b.Conv("c", in, 4, 3, 2)
			b.Concat("e", a, c)
		}, `spatial mismatch from "a" and "c"`},
		{"input-with-producer", func(b *Builder) {
			in := b.Input("in", 3, 8, 8)
			b.Custom("in2", OpInput, 1, 1, 3, 3, 8, 8, in)
			b.Conv("c", in, 4, 3, 1)
		}, `node "in2": input node with producers`},
		{"non-positive-in-c", func(b *Builder) {
			in := b.Input("in", 3, 8, 8)
			b.Custom("c", OpConv, 3, 1, -3, 4, 8, 8, in)
		}, `node "c": non-positive input channels -3`},
		{"size-overflow", func(b *Builder) {
			// OutBytes is 2^63: it would wrap to math.MinInt64.
			in := b.Input("in", 1<<21, 1<<21, 1<<21)
			b.Custom("c", OpConv, 1, 1, 1<<21, 1<<21, 1<<21, 1<<21, in)
		}, `node "in": output bytes, weight bytes or MACs above`},
		{"macs-overflow", func(b *Builder) {
			// The output (2^32 bytes) and weights (2^48, the cap) fit; the
			// MACs (2^64) do not.
			in := b.Input("in", 1<<16, 1<<8, 1<<8)
			b.Custom("c", OpConv, 1, 1, 1<<32, 1<<16, 1<<8, 1<<8, in)
		}, `node "c": output bytes, weight bytes or MACs above`},
		{"concat-overflow", func(b *Builder) {
			// 2^16+1 producers of 2^48 channels: unchecked, the channel sum
			// would wrap around to 2^48.
			from := make([]int, 1<<16+1)
			for i := range from {
				from[i] = b.Input("in"+strconv.Itoa(i), 1<<48, 1, 1)
			}
			b.Concat("cat", from...)
		}, `concat "cat": output bytes above`},
	}
	for _, c := range cases {
		b := NewBuilder(c.name)
		c.build(b)
		_, err := b.Finalize()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	// A duplicate name fails Finalize, and the builder stays failed.
	b := NewBuilder("dup")
	in := b.Input("x", 3, 8, 8)
	c := b.Conv("c", in, 4, 3, 1)
	b.Conv("x", c, 4, 3, 1)
	for i := 0; i < 2; i++ {
		if _, err := b.Finalize(); err == nil || err.Error() != `graph "dup": duplicate node name "x"` {
			t.Fatalf("Finalize #%d: err = %v, want the duplicate", i+1, err)
		}
	}
	if id := b.Conv("late", c, 4, 3, 1); id != -1 || b.Err() == nil {
		t.Errorf("Conv after a failed Finalize = %d (err %v), want -1", id, b.Err())
	}
	if _, err := NewBuilder("empty").Finalize(); err == nil {
		t.Error("empty graph should fail")
	}
	b = NewBuilder("inputs-only")
	b.Input("in", 3, 8, 8)
	if _, err := b.Finalize(); err == nil {
		t.Error("inputs-only graph should fail")
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{OpInput: "input", OpConv: "conv", OpMatmul: "matmul"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if OpKind(99).String() != "OpKind(99)" {
		t.Errorf("unknown kind: %s", OpKind(99))
	}
}

// TestConnectedComponentsPartitionProperty checks (via testing/quick) that
// splitting any random node subset into components yields disjoint connected
// parts that cover the subset.
func TestConnectedComponentsPartitionProperty(t *testing.T) {
	g, ids := diamond(t)
	f := func(mask uint8) bool {
		var set []int
		for i, id := range ids {
			if mask&(1<<uint(i)) != 0 {
				set = append(set, id)
			}
		}
		comps := components(g, set)
		total := 0
		seen := map[int]bool{}
		for _, comp := range comps {
			for _, id := range comp {
				if !slices.Contains(set, id) || seen[id] {
					return false
				}
				seen[id] = true
				total++
			}
			if !connected(g, comp) {
				return false
			}
		}
		return total == len(set)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMustFinalizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFinalize should panic on invalid graph")
		}
	}()
	NewBuilder("bad").MustFinalize()
}

func TestComputeIDs(t *testing.T) {
	g, ids := diamond(t)
	cached := g.ComputeIDs()
	copied := g.ComputeNodes()
	if len(cached) != len(copied) || len(cached) != 4 {
		t.Fatalf("compute ids = %v / %v", cached, copied)
	}
	for i, id := range cached {
		if copied[i] != id || id != ids[i+1] {
			t.Errorf("ComputeIDs[%d] = %d, ComputeNodes[%d] = %d, want %d", i, id, i, copied[i], ids[i+1])
		}
	}
	// ComputeNodes must hand out a private copy.
	copied[0] = -99
	if g.ComputeIDs()[0] == -99 {
		t.Error("ComputeNodes aliases the cached slice")
	}
}

func TestMarks(t *testing.T) {
	m := NewMarks(8)
	if m.Len() != 8 {
		t.Errorf("Len = %d", m.Len())
	}
	m.Set(3)
	if !m.Has(3) || m.Has(4) {
		t.Error("Set/Has broken")
	}
	m.Reset()
	if m.Has(3) {
		t.Error("Reset did not clear")
	}
	// Epoch wraparound must not resurrect stale stamps.
	m.Set(1)
	m.epoch = ^uint32(0)
	m.stamp[2] = ^uint32(0) // stale entry stamped with the pre-wrap epoch
	m.Reset()
	if m.Has(1) || m.Has(2) {
		t.Error("wraparound resurrected stale marks")
	}
	m.Set(5)
	if !m.Has(5) {
		t.Error("Set after wraparound")
	}
}
