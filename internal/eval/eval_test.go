package eval

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/partition"
	"cocco/internal/tiling"
)

// toy builds in -> c1 -> c2 -> c3 with known sizes.
func toy(t *testing.T) (*graph.Graph, []int) {
	t.Helper()
	b := graph.NewBuilder("toy")
	in := b.Input("in", 8, 32, 32)
	c1 := b.Conv("c1", in, 16, 3, 1)
	c2 := b.Conv("c2", c1, 16, 3, 1)
	c3 := b.Conv("c3", c2, 16, 3, 2)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g, []int{in, c1, c2, c3}
}

func testEvaluator(t *testing.T, g *graph.Graph) *Evaluator {
	t.Helper()
	ev, err := New(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestSubgraphRawCosts(t *testing.T) {
	g, ids := toy(t)
	ev := testEvaluator(t, g)
	c1, c2 := ids[1], ids[2]

	c := ev.Subgraph([]int{c1, c2})
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	n1, n2 := g.Node(c1), g.Node(c2)
	if c.WeightBytes != n1.WeightBytes()+n2.WeightBytes() {
		t.Errorf("weights = %d", c.WeightBytes)
	}
	// Input: the full `in` tensor; output: c2 (consumed by c3 outside).
	if c.InBytes != g.Node(ids[0]).OutBytes() {
		t.Errorf("in = %d", c.InBytes)
	}
	if c.OutBytes != n2.OutBytes() {
		t.Errorf("out = %d (c1 is internal, c2 crosses)", c.OutBytes)
	}
	if c.EMABytes() != c.WeightBytes+c.InBytes+c.OutBytes {
		t.Error("EMABytes identity")
	}
	if c.MACs != n1.MACs()+n2.MACs() {
		t.Errorf("MACs = %d", c.MACs)
	}
	if c.ActFootprint <= 0 || c.GLBAccessBytes <= 0 {
		t.Error("non-positive footprint/traffic")
	}
}

func TestSubgraphMemoization(t *testing.T) {
	g, ids := toy(t)
	ev := testEvaluator(t, g)
	a := ev.Subgraph([]int{ids[1], ids[2]})
	b := ev.Subgraph([]int{ids[2], ids[1]}) // order must not matter
	if a != b {
		t.Error("memoization missed identical member set")
	}
	hits, calls := ev.CacheStats()
	if calls != 2 || hits != 1 {
		t.Errorf("cache stats = %d/%d", hits, calls)
	}
}

func TestFusionReducesEMA(t *testing.T) {
	g, _ := toy(t)
	ev := testEvaluator(t, g)
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: hw.MiB, WeightBytes: hw.MiB}

	singles := ev.Partition(partition.Singletons(g), mem)
	whole := ev.Partition(partition.Whole(g), mem)
	if whole.EMABytes >= singles.EMABytes {
		t.Errorf("fusion did not reduce EMA: %d vs %d", whole.EMABytes, singles.EMABytes)
	}
	// Lower bound: weights + model input + model output (paper Figure 1).
	min := g.TotalWeightBytes() + g.Node(0).OutBytes() + g.Node(3).OutBytes()
	if whole.EMABytes != min {
		t.Errorf("whole-graph EMA = %d, want the lower bound %d", whole.EMABytes, min)
	}
}

func TestFitsRules(t *testing.T) {
	g, ids := toy(t)
	ev := testEvaluator(t, g)
	c := ev.Subgraph([]int{ids[1], ids[2]})

	big := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: hw.MiB, WeightBytes: hw.MiB}
	if !ev.Fits(c, big) {
		t.Error("should fit a 1MB buffer")
	}
	tiny := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 128, WeightBytes: 128}
	if ev.Fits(c, tiny) {
		t.Error("multi-node subgraph should not fit 128 bytes")
	}
	// Singletons always fit (layer-level tiling fallback).
	s := ev.Subgraph([]int{ids[1]})
	if !ev.Fits(s, tiny) {
		t.Error("singleton must always fit")
	}
	// Shared-buffer accounting: act+wgt within the single capacity.
	shared := hw.MemConfig{Kind: hw.SharedBuffer, GlobalBytes: c.ActFootprint + c.WeightBytes}
	if !ev.Fits(c, shared) {
		t.Error("should exactly fit shared capacity")
	}
	shared.GlobalBytes--
	if ev.Fits(c, shared) {
		t.Error("should not fit one byte less")
	}
}

func TestPartitionResultConsistency(t *testing.T) {
	g, _ := toy(t)
	ev := testEvaluator(t, g)
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: hw.MiB, WeightBytes: hw.MiB}
	p := partition.Singletons(g)
	res := ev.Partition(p, mem)

	if !res.Feasible() {
		t.Fatalf("singletons infeasible: %v", res.Infeasible)
	}
	if res.NumSubgraphs != 3 {
		t.Errorf("NumSubgraphs = %d", res.NumSubgraphs)
	}
	// Sum of contributions equals the result.
	var ema int64
	var energy float64
	var lat int64
	for _, members := range p.Subgraphs() {
		ctr := ev.Contribution(ev.Subgraph(members), mem)
		ema += ctr.EMABytes
		energy += ctr.EnergyPJ
		lat += ctr.LatencyCycles
	}
	if ema != res.EMABytes || lat != res.LatencyCycles {
		t.Error("contributions do not sum to the partition result")
	}
	if diff := energy - res.EnergyPJ; diff > 1e-6 || diff < -1e-6 {
		t.Error("energy does not sum")
	}
	if res.AvgBWBytesPerSec <= 0 {
		t.Error("bandwidth not computed")
	}
	if res.MetricValue(MetricEMA) != float64(res.EMABytes) {
		t.Error("MetricValue EMA")
	}
	if res.MetricValue(MetricEnergy) != res.EnergyPJ {
		t.Error("MetricValue energy")
	}
}

func TestCostFormulas(t *testing.T) {
	g, _ := toy(t)
	ev := testEvaluator(t, g)
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: hw.MiB, WeightBytes: hw.MiB}
	p := partition.Whole(g)

	// Formula 1: metric only.
	c1, res := ev.Cost(p, mem, Objective{Metric: MetricEMA})
	if c1 != float64(res.EMABytes) {
		t.Errorf("formula 1 cost = %g", c1)
	}
	// Formula 2: BUF_SIZE + α·metric.
	c2, res2 := ev.Cost(p, mem, Objective{Metric: MetricEnergy, Alpha: 0.002})
	want := float64(mem.TotalBytes()) + 0.002*res2.EnergyPJ
	if c2 != want {
		t.Errorf("formula 2 cost = %g, want %g", c2, want)
	}
}

func TestBatchScaling(t *testing.T) {
	g, _ := toy(t)
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: hw.MiB, WeightBytes: hw.MiB}
	p1 := hw.DefaultPlatform()
	p8 := hw.DefaultPlatform()
	p8.Batch = 8

	e1 := MustNew(g, p1, tiling.DefaultConfig())
	e8 := MustNew(g, p8, tiling.DefaultConfig())
	w := partition.Whole(g)
	r1 := e1.Partition(w, mem)
	r8 := e8.Partition(w, mem)

	// Weights amortized: EMA grows sub-linearly with batch.
	if r8.EMABytes >= 8*r1.EMABytes {
		t.Errorf("batch EMA not sub-linear: %d vs 8×%d", r8.EMABytes, r1.EMABytes)
	}
	if r8.EMABytes <= r1.EMABytes {
		t.Error("batch EMA should grow")
	}
	// Latency grows at most linearly (compute-bound subgraphs are exactly
	// linear in batch; rounding may add a cycle per subgraph).
	if r8.LatencyCycles <= r1.LatencyCycles || r8.LatencyCycles > 8*r1.LatencyCycles+int64(r1.NumSubgraphs) {
		t.Errorf("batch latency = %d vs single %d", r8.LatencyCycles, r1.LatencyCycles)
	}
}

func TestBatchSubLinearLatencyWhenWeightBound(t *testing.T) {
	// A weight-heavy layer is DRAM-bound: its weights load once per batch,
	// so batch-8 latency must be strictly sub-linear (< 8×).
	b := graph.NewBuilder("fcnet")
	in := b.Input("in", 256, 4, 4)
	fc1 := b.FC("fc1", in, 4096)
	b.FC("fc2", fc1, 4096)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: hw.MiB, WeightBytes: 64 * hw.MiB}
	p1 := hw.DefaultPlatform()
	p8 := hw.DefaultPlatform()
	p8.Batch = 8
	w := partition.Whole(g)
	r1 := MustNew(g, p1, tiling.DefaultConfig()).Partition(w, mem)
	r8 := MustNew(g, p8, tiling.DefaultConfig()).Partition(w, mem)
	if r8.LatencyCycles >= 4*r1.LatencyCycles {
		t.Errorf("weight-bound batch-8 latency %d not sub-linear vs %d", r8.LatencyCycles, r1.LatencyCycles)
	}
}

func TestMultiCoreScaling(t *testing.T) {
	g, _ := toy(t)
	mem := hw.MemConfig{Kind: hw.SharedBuffer, GlobalBytes: hw.MiB}
	p1 := hw.DefaultPlatform()
	p4 := hw.DefaultPlatform()
	p4.Cores = 4

	e1 := MustNew(g, p1, tiling.DefaultConfig())
	e4 := MustNew(g, p4, tiling.DefaultConfig())
	w := partition.Whole(g)
	r1 := e1.Partition(w, mem)
	r4 := e4.Partition(w, mem)

	// More cores: lower latency, higher energy (crossbar rotation), smaller
	// per-core weight footprint — the Table 3 trends.
	if r4.LatencyCycles >= r1.LatencyCycles {
		t.Errorf("4-core latency %d not below 1-core %d", r4.LatencyCycles, r1.LatencyCycles)
	}
	if r4.EnergyPJ <= r1.EnergyPJ {
		t.Errorf("4-core energy %g not above 1-core %g", r4.EnergyPJ, r1.EnergyPJ)
	}
	if r4.MaxWgtFootprint >= r1.MaxWgtFootprint {
		t.Errorf("per-core weights %d not below single-core %d", r4.MaxWgtFootprint, r1.MaxWgtFootprint)
	}
}

// prefetchChain builds a chain of 64→64 convolutions over an 8×8 input,
// one per kernel size (a 3×3 carries 36,864 B of weights, a 1×1 4,096 B),
// and partitions it into consecutive groups of the given sizes.
func prefetchChain(t *testing.T, kernels, groups []int) *partition.Partition {
	t.Helper()
	b := graph.NewBuilder("pf")
	prev := b.Input("in", 64, 8, 8)
	for i, k := range kernels {
		prev = b.Conv(fmt.Sprintf("c%d", i), prev, 64, k, 1)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	assign := []int{partition.Unassigned}
	for s, n := range groups {
		for range n {
			assign = append(assign, s)
		}
	}
	p, err := partition.From(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPrefetchCheck(t *testing.T) {
	// Adjacent multi-layer subgraphs whose weights fit individually but not
	// together must be flagged only under the prefetch check, and exactly
	// the earlier subgraph of each such pair.
	heavy4 := []int{3, 3, 3, 3} // two subgraphs of 73,728 B each
	cases := []struct {
		name            string
		kernels, groups []int
		kind            hw.BufferKind
		capacity        int64
		want            []int
	}{
		{"over-capacity pair", heavy4, []int{2, 2}, hw.SeparateBuffer, 100_000, []int{0}},
		{"capacity for both", heavy4, []int{2, 2}, hw.SeparateBuffer, 200_000, nil},
		// 8,192 + 73,728 fits; 73,728 + 73,728 does not.
		{"only the last pair", []int{1, 1, 3, 3, 3, 3}, []int{2, 2, 2}, hw.SeparateBuffer, 100_000, []int{1}},
		// A singleton streams its weights, so neither of its pairs counts.
		{"singleton between", []int{3, 3, 3, 3, 3}, []int{2, 1, 2}, hw.SeparateBuffer, 100_000, nil},
		{"shared buffer", heavy4, []int{2, 2}, hw.SharedBuffer, 100_000, []int{0}},
	}
	for _, c := range cases {
		p := prefetchChain(t, c.kernels, c.groups)
		mem := hw.MemConfig{Kind: c.kind, GlobalBytes: hw.MiB, WeightBytes: c.capacity}
		if c.kind == hw.SharedBuffer {
			mem = hw.MemConfig{Kind: c.kind, GlobalBytes: c.capacity}
		}
		plain := MustNew(p.Graph(), hw.DefaultPlatform(), tiling.DefaultConfig())
		if res := plain.Partition(p, mem); !res.Feasible() {
			t.Fatalf("%s: single-buffered evaluation infeasible: %v", c.name, res.Infeasible)
		}
		pf := MustNew(p.Graph(), hw.DefaultPlatform(), tiling.DefaultConfig())
		pf.EnablePrefetchCheck()
		if res := pf.Partition(p, mem); !slices.Equal(res.Infeasible, c.want) {
			t.Errorf("%s: Infeasible = %v, want %v", c.name, res.Infeasible, c.want)
		}
	}
}

func TestNewValidates(t *testing.T) {
	g, _ := toy(t)
	bad := hw.DefaultPlatform()
	bad.Cores = 0
	if _, err := New(g, bad, tiling.DefaultConfig()); err == nil {
		t.Error("invalid platform accepted")
	}
}

// TestInvalidTilingErrorText pins the error an invalid tiling config gives:
// New refuses it with the config's own validation error, as it refuses an
// invalid platform.
func TestInvalidTilingErrorText(t *testing.T) {
	g, _ := toy(t)
	const want = "tiling: base tile must be >= 1, got 0x2"
	if ev, err := New(g, hw.DefaultPlatform(), tiling.Config{BaseTileH: 0, BaseTileW: 2}); err == nil || err.Error() != want {
		t.Fatalf("New = %v, %v; want the error %q", ev, err, want)
	}
}

func TestConcurrentSubgraphEvaluation(t *testing.T) {
	g, ids := toy(t)
	ev := testEvaluator(t, g)
	var wg sync.WaitGroup
	results := make([]*SubgraphCost, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = ev.Subgraph([]int{ids[1], ids[2]})
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i].EMABytes() != results[0].EMABytes() {
			t.Fatal("concurrent evaluations disagree")
		}
	}
}

func TestMetricString(t *testing.T) {
	if MetricEMA.String() != "EMA" || MetricEnergy.String() != "energy" {
		t.Error("metric strings")
	}
}
