package eval_test

// The model-zoo equivalence suite of Evaluator.Partition: for every model ×
// both metrics × both buffer kinds, a randomized chain of partition
// operators (TryModifyNode / TrySplit / TryMerge via
// core.ApplyRandomMutation, plus in-situ split repair) must make Partition's
// member-run pass agree bit-for-bit with a reference that prices each
// subgraph's Members through Subgraph and Contribution and applies the
// feasibility rules one subgraph at a time — cost sums, feasibility set, and
// footprints alike.

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/tiling"
)

// memFor returns a moderately tight memory configuration per buffer kind, so
// the sequences exercise both feasible and infeasible subgraphs.
func memFor(kind hw.BufferKind) hw.MemConfig {
	if kind == hw.SharedBuffer {
		return hw.MemConfig{Kind: hw.SharedBuffer, GlobalBytes: 1536 * hw.KiB}
	}
	return hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 512 * hw.KiB, WeightBytes: 576 * hw.KiB}
}

// requireEqualResults fails unless the two results are exactly equal —
// including bit-equality of the float64 aggregates, which both sides must
// accumulate in the same order.
func requireEqualResults(t *testing.T, step int, got, want *eval.Result) {
	t.Helper()
	if got.EMABytes != want.EMABytes ||
		got.EnergyPJ != want.EnergyPJ ||
		got.LatencyCycles != want.LatencyCycles ||
		got.AvgBWBytesPerSec != want.AvgBWBytesPerSec ||
		got.MaxActFootprint != want.MaxActFootprint ||
		got.MaxWgtFootprint != want.MaxWgtFootprint ||
		got.NumSubgraphs != want.NumSubgraphs ||
		!reflect.DeepEqual(got.Infeasible, want.Infeasible) {
		t.Fatalf("step %d: result diverges\n  got: %+v\n want: %+v", step, got, want)
	}
}

// referencePartition prices p one subgraph at a time: Members through
// Subgraph, each share through Contribution, sums and maxima in subgraph
// order. Subgraph s is infeasible when it does not fit alone or, with the
// prefetch check, when it and s+1 are both multi-layer and their per-core
// weights overflow the weight buffer together.
func referencePartition(ev *eval.Evaluator, p *partition.Partition, mem hw.MemConfig, prefetch bool) *eval.Result {
	n := p.NumSubgraphs()
	res := &eval.Result{NumSubgraphs: n}
	wgtCap := mem.WeightBytes
	if mem.Kind == hw.SharedBuffer {
		wgtCap = mem.GlobalBytes
	}
	ctrs := make([]eval.Contribution, n)
	multi := make([]bool, n)
	for s := range n {
		c := ev.Subgraph(p.Members(s))
		ctrs[s], multi[s] = ev.Contribution(c, mem), len(c.Members) > 1
		res.EMABytes += ctrs[s].EMABytes
		res.EnergyPJ += ctrs[s].EnergyPJ
		res.LatencyCycles += ctrs[s].LatencyCycles
		res.MaxActFootprint = max(res.MaxActFootprint, c.ActFootprint)
		res.MaxWgtFootprint = max(res.MaxWgtFootprint, ctrs[s].WgtPerCore)
	}
	for s := range n {
		pair := prefetch && s+1 < n && multi[s] && multi[s+1] && ctrs[s].WgtPerCore+ctrs[s+1].WgtPerCore > wgtCap
		if !ctrs[s].Fits || pair {
			res.Infeasible = append(res.Infeasible, s)
		}
	}
	if res.LatencyCycles > 0 {
		res.AvgBWBytesPerSec = float64(res.EMABytes) / ev.LatencySeconds(res.LatencyCycles)
	}
	return res
}

// TestDeltaEquivalenceZoo is the model-zoo equivalence matrix: every step of
// an operator chain (each partition a delta of the last) is evaluated by
// Partition and by the reference.
func TestDeltaEquivalenceZoo(t *testing.T) {
	const steps = 12
	for _, model := range models.Names() {
		g := models.MustBuild(model)
		ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
		for _, kind := range []hw.BufferKind{hw.SeparateBuffer, hw.SharedBuffer} {
			for _, metric := range []eval.Metric{eval.MetricEMA, eval.MetricEnergy} {
				name := model + "/" + kind.String() + "/" + metric.String()
				t.Run(name, func(t *testing.T) {
					mem := memFor(kind)
					rng := rand.New(rand.NewSource(int64(len(name))*1009 + 7))
					p := core.RandomPartition(g, rng, 0.3)
					for step := 0; step <= steps; step++ {
						if step > 0 {
							p = core.ApplyRandomMutation(g, rng, p)
						}
						got := ev.Partition(p, mem)
						want := referencePartition(ev, p, mem, false)
						requireEqualResults(t, step, got, want)
						if got.MetricValue(metric) != want.MetricValue(metric) {
							t.Fatalf("step %d: metric %v differs: %g vs %g",
								step, metric, got.MetricValue(metric), want.MetricValue(metric))
						}
					}
					// The in-situ split repair re-evaluates after every split;
					// its final state must agree with the reference too.
					q, res := core.RepairInSitu(ev, rng, p, mem)
					requireEqualResults(t, -1, res, referencePartition(ev, q, mem, false))
				})
			}
		}
	}
}

// TestDeltaPrefetchEquivalence runs the matrix's separate-buffer chain with
// the §5.1.2 weight-prefetch feasibility check enabled, which adds the
// cross-subgraph double-buffering rule to the aggregation.
func TestDeltaPrefetchEquivalence(t *testing.T) {
	g := models.MustBuild("resnet50")
	ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	ev.EnablePrefetchCheck()
	mem := memFor(hw.SeparateBuffer)
	rng := rand.New(rand.NewSource(99))
	p := core.RandomPartition(g, rng, 0.3)
	for step := 0; step <= 16; step++ {
		if step > 0 {
			p = core.ApplyRandomMutation(g, rng, p)
		}
		requireEqualResults(t, step, ev.Partition(p, mem), referencePartition(ev, p, mem, true))
	}
}

// TestPrefetchInfeasibleMatchesPairRule checks the prefetch check's exact
// Infeasible list on random resnet50 partitions at a tight weight buffer
// against a reference built from Contribution: subgraph s fails when it
// does not fit alone, or when it and s+1 are both multi-layer and their
// per-core weights overflow the buffer together.
func TestPrefetchInfeasibleMatchesPairRule(t *testing.T) {
	g := models.MustBuild("resnet50")
	ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	ev.EnablePrefetchCheck()
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 512 * hw.KiB}
	pairOnly := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := core.RandomPartition(g, rng, 0.1+0.02*float64(seed%10))
		n := p.NumSubgraphs()
		ctrs := make([]eval.Contribution, n)
		multi := make([]bool, n)
		for s := range n {
			c := ev.Subgraph(p.Members(s))
			ctrs[s], multi[s] = ev.Contribution(c, mem), len(c.Members) > 1
		}
		var want []int
		for s := range n {
			pair := s+1 < n && multi[s] && multi[s+1] && ctrs[s].WgtPerCore+ctrs[s+1].WgtPerCore > mem.WeightBytes
			if !ctrs[s].Fits || pair {
				want = append(want, s)
			}
			if ctrs[s].Fits && pair {
				pairOnly++
			}
		}
		if got := ev.Partition(p, mem).Infeasible; !slices.Equal(got, want) {
			t.Fatalf("seed %d: Infeasible = %v, want %v", seed, got, want)
		}
	}
	if pairOnly == 0 {
		t.Fatal("no subgraph failed by the pair rule alone; tighten the buffer")
	}
}
