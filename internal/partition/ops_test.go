package partition

import (
	"slices"
	"strings"
	"testing"

	"cocco/internal/graph"
)

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// opsChain builds a small conv chain for the allocation pins.
func opsChain(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("opschain")
	prev := b.Input("in", 3, 16, 16)
	for i := 0; i < n; i++ {
		prev = b.Conv("c"+itoa(i), prev, 8, 3, 1)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestOpsIntoAllocFree pins the in-place operator contract: once the
// workspace and destination are warm, ModifyNodeInto / SplitInto / MergeInto
// perform zero allocations.
func TestOpsIntoAllocFree(t *testing.T) {
	g := opsChain(t, 16)
	p := Singletons(g)
	o := NewOps()
	ids := g.ComputeIDs()

	var dst *Partition
	warm := func(run func() *Partition) *Partition {
		q := run()
		if q == nil {
			t.Fatal("warmup op failed")
		}
		return q
	}

	dst = warm(func() *Partition {
		q, _ := o.ModifyNodeInto(dst, p, ids[1], p.Of(ids[0]))
		return q
	})
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := o.ModifyNodeInto(dst, p, ids[1], p.Of(ids[0])); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("warm ModifyNodeInto allocates %.1f per op, want 0", allocs)
	}

	merged := warm(func() *Partition {
		q, _ := o.MergeInto(nil, p, 0, 1)
		return q
	})
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := o.MergeInto(merged, p, 0, 1); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("warm MergeInto allocates %.1f per op, want 0", allocs)
	}

	// Split the merged pair back apart.
	base := warm(func() *Partition {
		q, _ := o.MergeInto(nil, p, 0, 1)
		return q
	})
	parts := [][]int{{ids[0]}, {ids[1]}}
	split := warm(func() *Partition {
		q, _ := o.SplitInto(nil, base, 0, parts)
		return q
	})
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := o.SplitInto(split, base, 0, parts); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("warm SplitInto allocates %.1f per op, want 0", allocs)
	}
}

// TestTryWrappersAllocLean pins the pooled-wrapper budget: a warm Try* call
// allocates only the escaping destination (the Partition struct and its
// assignment vector — ≤ 2 allocations).
func TestTryWrappersAllocLean(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector disables sync.Pool reuse; alloc pins do not hold")
	}
	g := opsChain(t, 16)
	p := Singletons(g)
	ids := g.ComputeIDs()

	// Warm the package pool (and its spare destination).
	if _, err := p.TryModifyNode(ids[1], p.Of(ids[0])); err != nil {
		t.Fatal(err)
	}
	ops := []struct {
		name string
		run  func() error
	}{
		{"TryModifyNode", func() error { _, err := p.TryModifyNode(ids[1], p.Of(ids[0])); return err }},
		{"TryMerge", func() error { _, err := p.TryMerge(0, 1); return err }},
	}
	for _, op := range ops {
		if err := op.run(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if err := op.run(); err != nil {
				t.Fatal(err)
			}
		}); allocs > 2 {
			t.Errorf("%s allocates %.1f per op, want <= 2", op.name, allocs)
		}
	}
}

// TestOpsRejectedMoveReusesDestination checks the failure contract: a
// rejected move reports an error without allocating a fresh destination on
// the next call (the workspace recycles it), and the receiver is untouched.
func TestOpsRejectedMoveReusesDestination(t *testing.T) {
	// in -> c1 -> {l, r} -> add with subgraphs {c1,l}, {r}, {add}: merging
	// {c1,l} with {add} yields a connected subgraph that wraps around {r}
	// (r both depends on and feeds it), so the move is cyclic and rejected.
	b := graph.NewBuilder("reject")
	in := b.Input("in", 3, 8, 8)
	c1 := b.Conv("c1", in, 4, 1, 1)
	l := b.Conv("l", c1, 4, 1, 1)
	r := b.Conv("r", c1, 4, 1, 1)
	add := b.Eltwise("add", l, r)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, g.Len())
	assign[in] = Unassigned
	assign[c1], assign[l] = 0, 0
	assign[r] = 1
	assign[add] = 2
	p, err := From(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOps()
	a, c := p.Of(c1), p.Of(add)
	before, count := p.Assignment(), p.NumSubgraphs()
	if _, err := o.MergeInto(nil, p, a, c); err == nil {
		t.Fatal("cyclic merge accepted")
	}
	if !slices.Equal(p.Assignment(), before) || p.NumSubgraphs() != count {
		t.Fatal("rejected merge mutated the receiver")
	}
	// The failed destination is recycled: repeated rejections settle at zero
	// allocations.
	if _, err := o.MergeInto(nil, p, a, c); err == nil {
		t.Fatal("cyclic merge accepted")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := o.MergeInto(nil, p, a, c); err == nil {
			t.Fatal("cyclic merge accepted")
		}
	}); allocs > 0 {
		t.Errorf("rejected MergeInto allocates %.1f per op, want 0", allocs)
	}
	// And the workspace still produces correct successes afterwards.
	q, err := o.MergeInto(nil, p, p.Of(r), p.Of(add))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("post-rejection merge invalid: %v", err)
	}

	// A CALLER-supplied destination whose operation failed must NOT be
	// recycled into the workspace: the caller still holds it, and handing it
	// out from a later *Into(nil, ...) would alias a live partition.
	callerDst := p.Clone()
	if _, err := o.MergeInto(callerDst, p, a, c); err == nil {
		t.Fatal("cyclic merge accepted")
	}
	q2, err := o.MergeInto(nil, p, p.Of(r), p.Of(add))
	if err != nil {
		t.Fatal(err)
	}
	if q2 == callerDst {
		t.Fatal("workspace recycled a caller-supplied destination; result aliases the caller's partition")
	}
}

// TestFromSparseHugeLabels pins the label-densify guard: From/FromRepaired
// accept arbitrary label values (their documented contract — e.g. a
// hand-edited partition JSON), so the dense pipeline must not size scratch
// by the raw maximum label. A 2^30 label used to demand gigabytes of
// label-indexed buffers; now it densifies first and normalizes instantly.
func TestFromSparseHugeLabels(t *testing.T) {
	g := opsChain(t, 6)
	ids := g.ComputeIDs()
	assign := make([]int, g.Len())
	assign[0] = Unassigned
	for i, id := range ids {
		assign[id] = 1 << 30 // one giant shared label...
		if i >= 3 {
			assign[id] = 7 // ...and a second sparse one
		}
	}
	p, err := From(g, assign)
	if err != nil {
		t.Fatalf("From with sparse huge labels: %v", err)
	}
	if p.NumSubgraphs() != 2 {
		t.Fatalf("NumSubgraphs = %d, want 2", p.NumSubgraphs())
	}
	if p.Of(ids[0]) != 0 || p.Of(ids[5]) != 1 {
		t.Fatalf("schedule labels wrong: %d, %d", p.Of(ids[0]), p.Of(ids[5]))
	}
	q, err := FromRepaired(g, assign)
	if err != nil {
		t.Fatalf("FromRepaired with sparse huge labels: %v", err)
	}
	if q.NumSubgraphs() != 2 {
		t.Fatalf("FromRepaired NumSubgraphs = %d, want 2", q.NumSubgraphs())
	}
}

// TestFromRejectionAllocs pins From's refusals to the partition it builds
// (the Partition and its assignment copy): the disconnected and cyclic
// rejections are sentinels, and the schedule pass runs on a pooled
// workspace.
func TestFromRejectionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector disables sync.Pool reuse; alloc pins do not hold")
	}
	g, ids := diamond(t)
	in, c1, l, r, add, c2 := ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]
	disconnected := make([]int, g.Len())
	disconnected[in] = Unassigned
	disconnected[c1], disconnected[l], disconnected[r], disconnected[add], disconnected[c2] = 0, 1, 1, 2, 3
	// {c1, l, add, c2} wraps around {r}: connected, but cyclic.
	cyclic := make([]int, g.Len())
	cyclic[in] = Unassigned
	cyclic[c1], cyclic[l], cyclic[r], cyclic[add], cyclic[c2] = 0, 0, 1, 0, 0
	cases := []struct {
		name   string
		assign []int
		want   string
	}{
		{"disconnected", disconnected, "not connected"},
		{"cyclic", cyclic, "cyclic"},
	}
	for _, tc := range cases {
		if _, err := From(g, tc.assign); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := From(g, tc.assign); err == nil {
				t.Fatalf("%s labeling accepted", tc.name)
			}
		}); allocs > 2 {
			t.Errorf("From refusing a %s labeling allocates %.1f times, want <= 2", tc.name, allocs)
		}
	}
}

// TestOpsErrorMessages keeps the operator error text aligned with the
// historical API (callers and logs match on these strings).
func TestOpsErrorMessages(t *testing.T) {
	g := opsChain(t, 4)
	p := Singletons(g)
	if _, err := p.TryModifyNode(0, 0); err == nil || !strings.Contains(err.Error(), "input node") {
		t.Errorf("input-node move: %v", err)
	}
	if _, err := p.TryModifyNode(g.ComputeIDs()[0], 99); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("target range: %v", err)
	}
	if _, err := p.TrySplit(0, [][]int{{g.ComputeIDs()[1]}}); err == nil || !strings.Contains(err.Error(), "not in subgraph") {
		t.Errorf("foreign part: %v", err)
	}
	if _, err := p.TryMerge(1, 1); err == nil || !strings.Contains(err.Error(), "itself") {
		t.Errorf("self merge: %v", err)
	}
}
