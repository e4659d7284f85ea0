package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/tiling"
)

func testEval(t testing.TB, model string) *eval.Evaluator {
	t.Helper()
	return eval.MustNew(models.MustBuild(model), hw.DefaultPlatform(), tiling.DefaultConfig())
}

func fixedMem() hw.MemConfig {
	return hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB}
}

func TestRandomPartitionValidityProperty(t *testing.T) {
	for _, model := range []string{"vgg16", "googlenet", "randwire-a"} {
		g := models.MustBuild(model)
		f := func(seed int64, pNewByte uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			pNew := float64(pNewByte) / 255
			p := RandomPartition(g, rng, pNew)
			return p.Validate() == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%s: %v", model, err)
		}
	}
}

func TestRandomPartitionGranularity(t *testing.T) {
	g := models.MustBuild("resnet50")
	rng := rand.New(rand.NewSource(1))
	// pNew=1 → all singletons; pNew→0 → strongly fused.
	all := RandomPartition(g, rng, 1.0)
	if all.NumSubgraphs() != len(g.ComputeNodes()) {
		t.Errorf("pNew=1 gave %d subgraphs, want %d", all.NumSubgraphs(), len(g.ComputeNodes()))
	}
	fused := RandomPartition(g, rng, 0.01)
	if fused.NumSubgraphs() >= all.NumSubgraphs()/2 {
		t.Errorf("pNew=0.01 gave %d subgraphs; expected strong fusion", fused.NumSubgraphs())
	}
}

func TestCrossoverProducesValidChildren(t *testing.T) {
	g := models.MustBuild("googlenet")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		dad := RandomPartition(g, rng, 0.4)
		mom := RandomPartition(g, rng, 0.2)
		child := crossoverPartition(g, rng, dad, mom)
		if err := child.Validate(); err != nil {
			t.Fatalf("iteration %d: invalid child: %v", i, err)
		}
	}
}

func TestCrossoverMemAveragesAndClamps(t *testing.T) {
	ms := MemSearch{Search: true, Kind: hw.SeparateBuffer,
		Global: hw.PaperGlobalRange(), Weight: hw.PaperWeightRange()}
	a := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 128 * hw.KiB, WeightBytes: 144 * hw.KiB}
	b := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 256 * hw.KiB, WeightBytes: 288 * hw.KiB}
	c := crossoverMem(ms, a, b)
	if c.GlobalBytes != 192*hw.KiB || c.WeightBytes != 216*hw.KiB {
		t.Errorf("average = %v", c)
	}
	if !ms.Global.Contains(c.GlobalBytes) || !ms.Weight.Contains(c.WeightBytes) {
		t.Error("average not on the candidate grid")
	}
}

func TestMutationsPreserveValidity(t *testing.T) {
	g := models.MustBuild("randwire-a")
	rng := rand.New(rand.NewSource(3))
	p := RandomPartition(g, rng, 0.3)
	for i := 0; i < 200; i++ {
		p = ApplyRandomMutation(g, rng, p)
		if err := p.Validate(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestMutateDSEStaysOnGrid(t *testing.T) {
	ms := MemSearch{Search: true, Kind: hw.SharedBuffer, Global: hw.PaperSharedRange()}
	rng := rand.New(rand.NewSource(5))
	m := hw.MemConfig{Kind: hw.SharedBuffer, GlobalBytes: 1024 * hw.KiB}
	for i := 0; i < 100; i++ {
		m = MutateMemConfig(rng, ms, m)
		if !ms.Global.Contains(m.GlobalBytes) {
			t.Fatalf("off-grid capacity %d", m.GlobalBytes)
		}
	}
}

func TestRunImprovesOverSingletons(t *testing.T) {
	ev := testEval(t, "googlenet")
	mem := fixedMem()
	base := ev.Partition(partition.Singletons(ev.Graph()), mem)

	best, stats, err := Run(ev, Options{
		Seed: 1, Population: 40, MaxSamples: 3000,
		Objective: eval.Objective{Metric: eval.MetricEMA},
		Mem:       MemSearch{Fixed: mem},
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Res.EMABytes >= base.EMABytes {
		t.Errorf("GA (%d) did not beat singletons (%d)", best.Res.EMABytes, base.EMABytes)
	}
	if stats.Samples != 3000 {
		t.Errorf("samples = %d", stats.Samples)
	}
	if err := best.P.Validate(); err != nil {
		t.Errorf("best partition invalid: %v", err)
	}
	// Best history is monotone non-increasing.
	for i := 1; i < len(stats.BestHistory); i++ {
		if stats.BestHistory[i] > stats.BestHistory[i-1] {
			t.Errorf("best history not monotone at %d", i)
		}
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	run := func() float64 {
		ev := testEval(t, "resnet50")
		best, _, err := Run(ev, Options{
			Seed: 9, Population: 30, MaxSamples: 1500,
			Objective: eval.Objective{Metric: eval.MetricEMA},
			Mem:       MemSearch{Fixed: fixedMem()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return best.Cost
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different results: %g vs %g", a, b)
	}
}

func TestInSituSplitRepairsTinyBuffers(t *testing.T) {
	ev := testEval(t, "resnet50")
	// A buffer too small for any multi-layer subgraph: only singletons fit,
	// so the repair must drive everything feasible.
	tiny := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 4 * hw.KiB, WeightBytes: 8 * hw.KiB}
	rng := rand.New(rand.NewSource(2))
	p := RandomPartition(ev.Graph(), rng, 0.05) // heavily fused start
	q, res := RepairInSitu(ev, rng, p, tiny)
	if !res.Feasible() {
		t.Fatalf("repair left %d infeasible subgraphs", len(res.Infeasible))
	}
	if err := q.Validate(); err != nil {
		t.Errorf("repaired partition invalid: %v", err)
	}
	if q.NumSubgraphs() <= p.NumSubgraphs() {
		t.Error("repair did not split anything")
	}
}

func TestRunWithDSEFindsOnGridConfig(t *testing.T) {
	ev := testEval(t, "googlenet")
	ms := MemSearch{Search: true, Kind: hw.SeparateBuffer,
		Global: hw.PaperGlobalRange(), Weight: hw.PaperWeightRange()}
	best, _, err := Run(ev, Options{
		Seed: 4, Population: 40, MaxSamples: 3000,
		Objective: eval.Objective{Metric: eval.MetricEnergy, Alpha: 0.002},
		Mem:       ms,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ms.Global.Contains(best.Mem.GlobalBytes) || !ms.Weight.Contains(best.Mem.WeightBytes) {
		t.Errorf("chosen config off-grid: %v", best.Mem)
	}
	// Formula 2 identity.
	want := float64(best.Mem.TotalBytes()) + 0.002*best.Res.EnergyPJ
	if diff := best.Cost - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("cost %g != formula 2 %g", best.Cost, want)
	}
}

func TestTraceReceivesEverySample(t *testing.T) {
	ev := testEval(t, "vgg16")
	count := 0
	lastSample := 0
	_, stats, err := Run(ev, Options{
		Seed: 1, Population: 20, MaxSamples: 500,
		Objective: eval.Objective{Metric: eval.MetricEMA},
		Mem:       MemSearch{Fixed: fixedMem()},
		Trace: func(tp TracePoint) {
			count++
			if tp.Sample != lastSample+1 {
				t.Fatalf("sample jump: %d after %d", tp.Sample, lastSample)
			}
			lastSample = tp.Sample
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != stats.Samples {
		t.Errorf("trace points %d != samples %d", count, stats.Samples)
	}
}

func TestOptionsValidation(t *testing.T) {
	ev := testEval(t, "vgg16")
	if _, err := NewOptimizer(ev, Options{Mem: MemSearch{Search: true}}); err == nil {
		t.Error("empty search range accepted")
	}
	// A searched range is bounded: a positive minimum, at most
	// hw.MaxRangeCandidates candidates.
	for _, r := range []hw.MemRange{{Min: 1, Max: 1 << 20, Step: 1}, {Min: 0, Max: hw.MiB, Step: hw.KiB}} {
		opt := Options{MaxSamples: 10, Mem: MemSearch{Search: true, Kind: hw.SharedBuffer, Global: r}}
		if err := opt.Validate(); err == nil {
			t.Errorf("range %+v admitted", r)
		}
	}
	if _, err := NewOptimizer(ev, Options{Mem: MemSearch{Fixed: hw.MemConfig{}}}); err == nil {
		t.Error("invalid fixed config accepted")
	}
	if _, err := NewOptimizer(ev, Options{
		Mem: MemSearch{Search: true, Kind: hw.SeparateBuffer, Global: hw.PaperGlobalRange()},
	}); err == nil {
		t.Error("missing weight range accepted")
	}
}

func TestInitSeedingUsed(t *testing.T) {
	ev := testEval(t, "vgg16")
	seedP := partition.Whole(ev.Graph())
	var sawWholeCost bool
	wholeRes := ev.Partition(seedP, fixedMem())
	_, _, err := Run(ev, Options{
		Seed: 1, Population: 10, MaxSamples: 50,
		Objective: eval.Objective{Metric: eval.MetricEMA},
		Mem:       MemSearch{Fixed: fixedMem()},
		Init:      []*partition.Partition{seedP},
		Trace: func(tp TracePoint) {
			if tp.Sample == 1 && tp.Metric <= float64(wholeRes.EMABytes)*1.5 {
				sawWholeCost = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawWholeCost {
		t.Error("seeded partition not evaluated first")
	}
}

func TestGenomeClone(t *testing.T) {
	g := models.MustBuild("vgg16")
	p := partition.Singletons(g)
	gen := &Genome{P: p, Mem: fixedMem(), Cost: 5}
	c := gen.Clone()
	if c.P == gen.P {
		t.Error("partition not deep-copied")
	}
	if c.Cost != 5 || c.Mem != gen.Mem {
		t.Error("fields not copied")
	}
}

func TestRandomMemUniformWithinRange(t *testing.T) {
	ms := MemSearch{Search: true, Kind: hw.SeparateBuffer,
		Global: hw.PaperGlobalRange(), Weight: hw.PaperWeightRange()}
	rng := rand.New(rand.NewSource(11))
	seen := map[int64]bool{}
	for i := 0; i < 300; i++ {
		m := RandomMemConfig(rng, ms)
		if !ms.Global.Contains(m.GlobalBytes) || !ms.Weight.Contains(m.WeightBytes) {
			t.Fatalf("off-grid draw %v", m)
		}
		seen[m.GlobalBytes] = true
	}
	if len(seen) < 15 {
		t.Errorf("poor spread: only %d distinct capacities", len(seen))
	}
}

// TestRandomMemConfigMatchesExpansion: a draw is Min + k·Step for the k
// the one rng.Intn(Count()) call picks, so on both paper spaces (all three
// paper ranges) the sequence matches indexing the expanded candidates with
// the same calls.
func TestRandomMemConfigMatchesExpansion(t *testing.T) {
	for _, ms := range []MemSearch{PaperSpace(hw.SeparateBuffer), PaperSpace(hw.SharedBuffer)} {
		rng, ref := rand.New(NewSource(5)), rand.New(NewSource(5))
		g, w := ms.Global.Candidates(), ms.Weight.Candidates()
		for i := 0; i < 1_000; i++ {
			want := hw.MemConfig{Kind: ms.Kind, GlobalBytes: g[ref.Intn(len(g))]}
			if ms.Kind == hw.SeparateBuffer {
				want.WeightBytes = w[ref.Intn(len(w))]
			}
			if got := RandomMemConfig(rng, ms); got != want {
				t.Fatalf("%v draw %d: %v, want %v", ms.Kind, i, got, want)
			}
		}
	}
}

func TestQuotientNeighborsSymmetric(t *testing.T) {
	g := models.MustBuild("googlenet")
	rng := rand.New(rand.NewSource(13))
	p := RandomPartition(g, rng, 0.5)
	sc := getOpScratch(g.Len(), p.NumSubgraphs()+1)
	defer putOpScratch(sc)
	sc2 := getOpScratch(g.Len(), p.NumSubgraphs()+1)
	defer putOpScratch(sc2)
	for s := 0; s < p.NumSubgraphs(); s++ {
		for _, nb := range append([]int(nil), quotientNeighbors(g, p, s, sc)...) {
			back := quotientNeighbors(g, p, nb, sc2)
			found := false
			for _, x := range back {
				if x == s {
					found = true
				}
			}
			if !found {
				t.Fatalf("neighbor relation not symmetric: %d->%d", s, nb)
			}
		}
	}
}
