package baselines

import (
	"errors"
	"fmt"
	"testing"

	"cocco/internal/core"
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

func paperMem() hw.MemConfig {
	return hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB}
}

func metricOf(ev *eval.Evaluator, p *partition.Partition, mem hw.MemConfig, m eval.Metric) float64 {
	return ev.Partition(p, mem).MetricValue(m)
}

func TestGreedyImprovesAndStaysValid(t *testing.T) {
	for _, model := range []string{"vgg16", "googlenet"} {
		ev := testEval(t, model)
		mem := paperMem()
		p, samples := Greedy(ev, mem, eval.MetricEMA)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: invalid result: %v", model, err)
		}
		if samples <= 0 {
			t.Errorf("%s: no samples recorded", model)
		}
		base := metricOf(ev, partition.Singletons(ev.Graph()), mem, eval.MetricEMA)
		got := metricOf(ev, p, mem, eval.MetricEMA)
		if got >= base {
			t.Errorf("%s: greedy %g did not improve on singletons %g", model, got, base)
		}
		// Every subgraph must fit the buffers.
		if res := ev.Partition(p, mem); !res.Feasible() {
			t.Errorf("%s: greedy produced infeasible subgraphs", model)
		}
	}
}

func TestDPValidAndAtLeastGreedyOnChains(t *testing.T) {
	// On a plain chain the DP's contiguity restriction is no restriction at
	// all, so it must match the exact enumeration.
	ev := testEval(t, "vgg16")
	mem := paperMem()
	dpP, _ := DP(ev, mem, eval.MetricEMA)
	if err := dpP.Validate(); err != nil {
		t.Fatal(err)
	}
	enP, _, err := Enumerate(ev, mem, eval.MetricEMA)
	if err != nil {
		t.Fatal(err)
	}
	dpCost := metricOf(ev, dpP, mem, eval.MetricEMA)
	enCost := metricOf(ev, enP, mem, eval.MetricEMA)
	if dpCost != enCost {
		t.Errorf("on a plain chain DP (%g) must equal enumeration (%g)", dpCost, enCost)
	}
}

func TestEnumerationIsOptimal(t *testing.T) {
	// The downset DP is exact, so no other method may beat it. At two cores
	// a subgraph's weights are sharded, ⌈W/2⌉ bytes per core (§5.4.2), so
	// the enumeration must test candidates by the rule the GA's results
	// apply, or the GA searches a larger feasible set and beats it.
	for _, cores := range []int{1, 2} {
		p := hw.DefaultPlatform()
		p.Cores = cores
		for _, model := range []string{"vgg16", "resnet50", "googlenet"} {
			name := fmt.Sprintf("%s at %d cores", model, cores)
			ev := eval.MustNew(models.MustBuild(model), p, tiling.DefaultConfig())
			mem := paperMem()
			enP, samples, err := Enumerate(ev, mem, eval.MetricEMA)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if samples <= 0 {
				t.Errorf("%s: no candidate evaluations", name)
			}
			enCost := metricOf(ev, enP, mem, eval.MetricEMA)

			gP, _ := Greedy(ev, mem, eval.MetricEMA)
			dP, _ := DP(ev, mem, eval.MetricEMA)
			if g := metricOf(ev, gP, mem, eval.MetricEMA); g < enCost {
				t.Errorf("%s: greedy %g beat 'exact' enumeration %g", name, g, enCost)
			}
			if d := metricOf(ev, dP, mem, eval.MetricEMA); d < enCost {
				t.Errorf("%s: DP %g beat 'exact' enumeration %g", name, d, enCost)
			}
			coccoBest, _, err := core.Run(ev, core.Options{
				Seed: 3, Population: 60, MaxSamples: 8000,
				Objective: eval.Objective{Metric: eval.MetricEMA},
				Mem:       core.MemSearch{Fixed: mem},
			})
			if err != nil {
				t.Fatal(err)
			}
			if float64(coccoBest.Res.EMABytes) < enCost {
				t.Errorf("%s: Cocco %d beat 'exact' enumeration %g", name, coccoBest.Res.EMABytes, enCost)
			}
		}
	}
}

// TestFitsIsContributionFits: Fits, which Enumerate, DP and Greedy test
// candidates with, applies the rule every Result applies
// (Contribution.Fits), weights sharded across cores, on every window of up
// to 8 compute layers at two cores.
func TestFitsIsContributionFits(t *testing.T) {
	p := hw.DefaultPlatform()
	p.Cores = 2
	mem := paperMem()
	for _, model := range []string{"resnet50", "googlenet"} {
		ev := eval.MustNew(models.MustBuild(model), p, tiling.DefaultConfig())
		ids := ev.Graph().ComputeIDs()
		for i := range ids {
			for j := i + 1; j <= len(ids) && j-i <= 8; j++ {
				c := ev.Subgraph(ids[i:j])
				if fits, want := ev.Fits(c, mem), ev.Contribution(c, mem).Fits; fits != want {
					t.Fatalf("%s: window %v: Fits %v, Contribution.Fits %v", model, c.Members, fits, want)
				}
			}
		}
	}
}

func TestEnumerationBudgetOnIrregular(t *testing.T) {
	// Randomly wired graphs exhaust the downset budget, as in the paper.
	ev := testEval(t, "randwire-a")
	_, _, err := Enumerate(ev, paperMem(), eval.MetricEMA)
	if !errors.Is(err, ErrBudget) {
		t.Errorf("expected ErrBudget, got %v", err)
	}
}

func TestEnumerationRespectsFeasibility(t *testing.T) {
	ev := testEval(t, "resnet50")
	mem := paperMem()
	p, _, err := Enumerate(ev, mem, eval.MetricEMA)
	if err != nil {
		t.Fatal(err)
	}
	if res := ev.Partition(p, mem); !res.Feasible() {
		t.Error("enumeration returned infeasible subgraphs")
	}
}

func TestSAFindsFeasibleAndDeterministic(t *testing.T) {
	run := func() float64 {
		ev := testEval(t, "googlenet")
		var trace []core.TracePoint
		best, err := SA(ev, SAOptions{
			Seed: 5, MaxSamples: 2000,
			Objective: eval.Objective{Metric: eval.MetricEnergy, Alpha: 0.002},
			Mem: core.MemSearch{Search: true, Kind: hw.SeparateBuffer,
				Global: hw.PaperGlobalRange(), Weight: hw.PaperWeightRange()},
			Trace: func(tp core.TracePoint) { trace = append(trace, tp) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if !best.Res.Feasible() {
			t.Fatal("SA best infeasible")
		}
		// One chain: exactly MaxSamples trace points, numbered 1…N.
		if len(trace) != 2000 {
			t.Fatalf("trace has %d points, want 2000", len(trace))
		}
		for i, tp := range trace {
			if tp.Sample != i+1 {
				t.Fatalf("trace[%d].Sample = %d, want %d", i, tp.Sample, i+1)
			}
		}
		return best.Cost
	}
	if a, b := run(), run(); a != b {
		t.Errorf("SA not deterministic: %g vs %g", a, b)
	}
}

func TestSAImprovesOverFirstSample(t *testing.T) {
	ev := testEval(t, "resnet50")
	var first, count = 0.0, 0
	best, err := SA(ev, SAOptions{
		Seed: 1, MaxSamples: 3000,
		Objective: eval.Objective{Metric: eval.MetricEMA},
		Mem:       core.MemSearch{Search: false, Fixed: paperMem()},
		Trace: func(tp core.TracePoint) {
			count++
			if count == 1 {
				first = tp.Cost
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 3000 {
		t.Errorf("trace count = %d", count)
	}
	if best.Cost > first {
		t.Errorf("SA ended worse (%g) than it started (%g)", best.Cost, first)
	}
}

func TestTwoStepBothMethods(t *testing.T) {
	for _, method := range []SampleMethod{RandomSearch, GridSearch} {
		ev := testEval(t, "googlenet")
		best, err := TwoStep(ev, TwoStepOptions{
			Seed: 2, Method: method, Candidates: 4, SamplesPerCandidate: 500,
			Kind: hw.SeparateBuffer, Global: hw.PaperGlobalRange(), Weight: hw.PaperWeightRange(),
			Objective: eval.Objective{Metric: eval.MetricEnergy, Alpha: 0.002},
		})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if !hw.PaperGlobalRange().Contains(best.Mem.GlobalBytes) {
			t.Errorf("%v: capacity off-grid: %v", method, best.Mem)
		}
		if best.Cost <= 0 {
			t.Errorf("%v: bad cost %g", method, best.Cost)
		}
	}
}

func TestTwoStepSharedKind(t *testing.T) {
	ev := testEval(t, "googlenet")
	best, err := TwoStep(ev, TwoStepOptions{
		Seed: 2, Method: GridSearch, Candidates: 4, SamplesPerCandidate: 400,
		Kind: hw.SharedBuffer, Global: hw.PaperSharedRange(),
		Objective: eval.Objective{Metric: eval.MetricEnergy, Alpha: 0.002},
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Mem.Kind != hw.SharedBuffer || best.Mem.WeightBytes != 0 {
		t.Errorf("wrong kind: %v", best.Mem)
	}
}

func TestSampleMethodString(t *testing.T) {
	if RandomSearch.String() != "RS" || GridSearch.String() != "GS" {
		t.Error("method strings")
	}
}

func TestGreedyRespectsTinyBuffers(t *testing.T) {
	ev := testEval(t, "vgg16")
	tiny := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 2 * hw.KiB, WeightBytes: 2 * hw.KiB}
	p, _ := Greedy(ev, tiny, eval.MetricEMA)
	// Nothing fits together: the result must stay all-singletons.
	if p.NumSubgraphs() != len(ev.Graph().ComputeNodes()) {
		t.Errorf("greedy merged with impossible buffers: %d subgraphs", p.NumSubgraphs())
	}
}
