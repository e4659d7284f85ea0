package tiling

import (
	"strings"
	"testing"

	"cocco/internal/graph"
)

// paperExample builds the exact subgraph of Figure 5: two external inputs
// Node(-2) and Node(-1); Node(0) = 3×3/2 conv of Node(-2); Node(1) = 3×3/1
// conv of Node(-2) and Node(-1); Node(2) = 1×1/1 conv of Node(-1).
// Returned ids: [A(-2), B(-1), n0, n1, n2].
func paperExample(t *testing.T) (*graph.Graph, []int) {
	t.Helper()
	b := graph.NewBuilder("fig5")
	a := b.Input("A", 8, 64, 64)
	bb := b.Input("B", 8, 64, 64)
	n0 := b.Custom("n0", graph.OpConv, 3, 2, 8, 8, 31, 31, a)
	n1 := b.Custom("n1", graph.OpConv, 3, 1, 16, 8, 62, 62, a, bb)
	n2 := b.Custom("n2", graph.OpConv, 1, 1, 8, 8, 64, 64, bb)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g, []int{a, bb, n0, n1, n2}
}

func TestDerivePaperExample(t *testing.T) {
	g, ids := paperExample(t)
	a, bb, n0, n1, n2 := ids[0], ids[1], ids[2], ids[3], ids[4]
	s, err := Derive(g, []int{n0, n1, n2}, Config{BaseTileH: 2, BaseTileW: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]struct{ delta, tile, upd int64 }{
		a:  {4, 6, 1},
		bb: {2, 4, 2},
		n0: {2, 2, 1},
		n1: {2, 2, 2},
		n2: {2, 2, 2},
	}
	for id, w := range want {
		ns := s.Nodes[id]
		if ns == nil {
			t.Fatalf("node %d missing from scheme", id)
		}
		if ns.DeltaH != w.delta || ns.TileH != w.tile || ns.UpdH != w.upd {
			t.Errorf("node %d: got Δ=%d x=%d upd=%d, want Δ=%d x=%d upd=%d",
				id, ns.DeltaH, ns.TileH, ns.UpdH, w.delta, w.tile, w.upd)
		}
		// The derivation is dimension-symmetric; W must match H here.
		if ns.DeltaW != w.delta || ns.TileW != w.tile || ns.UpdW != w.upd {
			t.Errorf("node %d: W dimension diverged: Δ=%d x=%d upd=%d", id, ns.DeltaW, ns.TileW, ns.UpdW)
		}
	}
	// External/output classification.
	if !s.Nodes[a].External || !s.Nodes[bb].External {
		t.Error("inputs not marked external")
	}
	for _, id := range []int{n0, n1, n2} {
		if s.Nodes[id].External {
			t.Errorf("member %d marked external", id)
		}
		if !s.Nodes[id].Output {
			t.Errorf("member %d should be an output (no internal consumer)", id)
		}
	}
}

func TestDeriveChain(t *testing.T) {
	// A plain chain in -> c1(3/1) -> c2(3/2) -> c3(3/1).
	b := graph.NewBuilder("chain")
	in := b.Input("in", 8, 64, 64)
	c1 := b.Conv("c1", in, 8, 3, 1)
	c2 := b.Conv("c2", c1, 8, 3, 2)
	c3 := b.Conv("c3", c2, 8, 3, 1)
	g := b.MustFinalize()

	s, err := Derive(g, []int{c1, c2, c3}, Config{BaseTileH: 2, BaseTileW: 2})
	if err != nil {
		t.Fatal(err)
	}
	// c3 is the only output: Δ=x=2. c2: Δ = Δ(c3)·s(c3)=2, x = f_c3(2)=4.
	// c1: Δ = Δ(c2)·s(c2)=4, x = f_c2(4/2=2)=3+1·2=5.
	// in: Δ = Δ(c1)·1=4, x = f_c1(4)=3+3=6.
	checks := []struct {
		id          int
		delta, tile int64
	}{{c3, 2, 2}, {c2, 2, 4}, {c1, 4, 5}, {in, 4, 6}}
	for _, c := range checks {
		ns := s.Nodes[c.id]
		if ns.DeltaH != c.delta || ns.TileH != c.tile {
			t.Errorf("node %d: got Δ=%d x=%d, want Δ=%d x=%d", c.id, ns.DeltaH, ns.TileH, c.delta, c.tile)
		}
	}
	// Rate invariant: upd(v)·Δ(v)·s(v) == upd(u)·Δ(u) on every edge.
	for _, e := range [][2]int{{in, c1}, {c1, c2}, {c2, c3}} {
		u, v := s.Nodes[e[0]], s.Nodes[e[1]]
		nv := g.Node(e[1])
		if v.UpdH*v.DeltaH*int64(nv.StrideH) != u.UpdH*u.DeltaH {
			t.Errorf("edge %d->%d: rate mismatch", e[0], e[1])
		}
	}
}

func TestDeriveSingleNode(t *testing.T) {
	b := graph.NewBuilder("single")
	in := b.Input("in", 3, 32, 32)
	c1 := b.Conv("c1", in, 16, 3, 1)
	g := b.MustFinalize()
	s, err := Derive(g, []int{c1}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Nodes[c1]; got.DeltaH != 2 || got.TileH != 2 || got.UpdH < 1 {
		t.Errorf("single-node scheme wrong: %+v", got)
	}
	if got := s.Nodes[in]; got.TileH != 4 { // f(2) = 3 + 1 = 4
		t.Errorf("input tile = %d, want 4", got.TileH)
	}
	if len(s.Order) != 1 || s.Order[0] != c1 {
		t.Errorf("order = %v", s.Order)
	}
}

func TestDeriveErrors(t *testing.T) {
	g, ids := paperExample(t)
	if _, err := Derive(g, nil, DefaultConfig()); err == nil {
		t.Error("empty subgraph should fail")
	}
	if _, err := Derive(g, []int{ids[2]}, Config{BaseTileH: 0, BaseTileW: 2}); err == nil {
		t.Error("zero base tile should fail")
	}
}

func TestFootprintBytes(t *testing.T) {
	g, ids := paperExample(t)
	n0, n1, n2 := ids[2], ids[3], ids[4]
	s, err := Derive(g, []int{n0, n1, n2}, Config{BaseTileH: 2, BaseTileW: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Pure output node: MAIN only, tile 2×2, C=8 -> 32 bytes.
	if got := s.FootprintBytes(n0); got != 32 {
		t.Errorf("n0 footprint = %d, want 32", got)
	}
	// External A: MAIN 6×6×8 = 288, SIDE (x−Δ)=2 rows × (64−6)=58 cols × 8
	// channels = 928; total 1216.
	if a := s.Nodes[ids[0]]; a.Main != 288 || a.Side != 928 {
		t.Errorf("A regions = MAIN %d + SIDE %d, want 288 + 928", a.Main, a.Side)
	}
	if got := s.FootprintBytes(ids[0]); got != 288+928 {
		t.Errorf("A footprint = %d, want %d", got, 288+928)
	}
	total := s.TotalFootprintBytes()
	var sum int64
	for id := range s.Nodes {
		sum += s.FootprintBytes(id)
	}
	if total != sum {
		t.Errorf("TotalFootprintBytes %d != sum %d", total, sum)
	}
}

func TestProductionVsConsumptionFootprint(t *testing.T) {
	// The production-centric scheme must never need less buffer than the
	// consumption-centric one on branchy subgraphs (Figure 4's point).
	b := graph.NewBuilder("fig4")
	in := b.Input("in", 8, 64, 64)
	n0 := b.Conv("n0", in, 8, 5, 2) // 5×5/2 branch
	n1 := b.Conv("n1", in, 8, 1, 1) // 1×1/1 branch
	n2 := b.Conv("n2", n1, 8, 3, 2) // 3×3/2
	n3 := b.Eltwise("n3", n0, n2)   // add
	g := b.MustFinalize()

	members := []int{n0, n1, n2, n3}
	s, err := Derive(g, members, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cons := s.TotalMainBytes()
	prod := ProductionFootprintBytes(g, members, s)
	if prod < cons {
		t.Errorf("production-centric footprint %d < consumption-centric %d", prod, cons)
	}
	// On this branchy subgraph the production-centric scheme strictly
	// over-allocates (Node(1) caches a full 7×7 tile instead of 5×5, etc.).
	if prod == cons {
		t.Errorf("expected strict over-allocation, both %d", prod)
	}
}

func TestGCDLCM(t *testing.T) {
	if gcd64(12, 18) != 6 {
		t.Error("gcd")
	}
	if l, ok := lcm64(4, 6); l != 12 || !ok {
		t.Error("lcm")
	}
	if l, ok := lcm64(0, 5); l != 0 || !ok {
		t.Error("lcm zero")
	}
	// Coprime strides whose product exceeds 2^63 used to wrap to a
	// positive value.
	if l, ok := lcm64(1<<33+1, 1<<33+3); ok {
		t.Errorf("lcm64(2^33+1, 2^33+3) = %d, want an overflow", l)
	}
	if r := reduceRat(6, -4); r.num != -3 || r.den != 2 {
		t.Errorf("reduceRat(6,-4) = %v", r)
	}
}

// TestDeriveRejectsWrappedLCM pins that a stride LCM too large for an int64
// is an error, not a wrapped Δ: strides 2^33+1 and 2^33+3 used to give
// Δ(p) = 68,719,476,742 at the default 2-row base tile, for a true LCM of
// about 1.48·10^20.
func TestDeriveRejectsWrappedLCM(t *testing.T) {
	b := graph.NewBuilder("wide-strides")
	in := b.Input("in", 1, 1<<34, 1)
	p := b.Conv("p", in, 1, 1, 1)
	a := b.Conv("a", p, 1, 1, 1<<33+1)
	c := b.Conv("c", p, 1, 1, 1<<33+3)
	g := b.MustFinalize()
	members := []int{p, a, c}
	if s, err := Derive(g, members, DefaultConfig()); err == nil {
		t.Errorf("Derive succeeded with Δ(p) = %d", s.Nodes[p].DeltaH)
	}
	d, err := NewDeriver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fp, err := d.TotalFootprint(members); err == nil {
		t.Errorf("TotalFootprint succeeded with %d bytes", fp)
	}
}

// TestDeriveRejectsWrappedUpdateRate pins stage 3's overflow checks. n4
// reads both the input and the end of a chain whose strides multiply past
// 2^63, so the rational propagation of prod = upd·Δ around that cycle
// wraps: unchecked, the consistency test compared 2^40/1 with a wrapped 0/1
// and reported inconsistent update rates instead of the overflow.
func TestDeriveRejectsWrappedUpdateRate(t *testing.T) {
	b := graph.NewBuilder("wrapped-rates")
	in := b.Input("in", 1, 1, 1)
	n0 := b.Custom("n0", graph.OpConv, 2, 1, 1, 1, 1, 1, in)
	n1 := b.Custom("n1", graph.OpConv, 2, 16, 1, 1, 1, 1, n0)
	n2 := b.Custom("n2", graph.OpConv, 3, 5, 1, 1, 1, 1, n1)
	n3 := b.Custom("n3", graph.OpConv, 2, 1<<21, 1, 1, 1, 1, n2)
	b.Custom("n4", graph.OpConv, 3, 1<<18, 1, 1, 1, 1, in, n3)
	g := b.MustFinalize()
	members := g.ComputeNodes()
	const want = "tiling: update-rate overflow at node"
	if _, err := Derive(g, members, DefaultConfig()); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("Derive: err = %v, want %q", err, want)
	}
	d, err := NewDeriver(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.TotalFootprint(members); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("TotalFootprint: err = %v, want %q", err, want)
	}
}

func TestParseConfig(t *testing.T) {
	c, err := ParseConfig("4x2")
	if err != nil || c.BaseTileH != 4 || c.BaseTileW != 2 {
		t.Fatalf("ParseConfig(4x2) = %+v, %v", c, err)
	}
	if c.String() != "4x2" {
		t.Errorf("String() = %q", c.String())
	}
	if rt, err := ParseConfig(DefaultConfig().String()); err != nil || rt != DefaultConfig() {
		t.Errorf("round-trip failed: %+v, %v", rt, err)
	}
	for _, bad := range []string{"", "x", "2", "0x2", "2x0", "-1x2", "ax2"} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("ParseConfig(%q) accepted", bad)
		}
	}
}
