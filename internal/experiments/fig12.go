package experiments

import (
	"fmt"
	"math"
	"strings"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/report"
)

// ConvergenceCurve is one method's best-so-far cost sampled along the
// search (Figure 12 a–c).
type ConvergenceCurve struct {
	Model, Method string
	Samples       []int
	BestCost      []float64
}

// Fig12Result bundles the curves and the samples-to-threshold table
// (Figure 12 d).
type Fig12Result struct {
	Curves []ConvergenceCurve
	// SamplesTo105 maps model → method → samples needed to reach 1.05× of
	// Cocco's final cost (0 if never reached within the budget).
	SamplesTo105 map[string]map[string]int
}

// Figure12 runs the sample-efficiency study: the two-step schemes
// (Buf(S/M/L)+GA, RS+GA, GS+GA) and the co-optimizers (SA, Cocco) on
// ResNet50, GoogleNet, and RandWire, recording cost-vs-samples curves and
// the samples needed to attain 1.05× of Cocco's final result.
func Figure12(cfg Config) (*Fig12Result, string) {
	modelsUnderTest := []string{"resnet50", "googlenet", "randwire-a"}
	obj := eval.Objective{Metric: eval.MetricEnergy, Alpha: PaperAlpha}
	stride := maxInt(cfg.CoOptSamples/100, 1)

	res := &Fig12Result{SamplesTo105: map[string]map[string]int{}}
	methods := []string{"Buf(S)+GA", "Buf(M)+GA", "Buf(L)+GA", "RS+GA", "GS+GA", "SA", "Cocco"}

	for _, m := range modelsUnderTest {
		ev := evaluatorFor(m, platform1())
		res.SamplesTo105[m] = map[string]int{}
		var coccoFinal float64

		for _, method := range methods {
			curve := ConvergenceCurve{Model: m, Method: method}
			best := math.Inf(1)
			trace := func(tp core.TracePoint) {
				// Every method's trace cost is Formula 2 (the fixed-buffer
				// runs re-base theirs); infeasible samples never improve
				// `best`.
				if tp.Feasible && tp.Cost < best {
					best = tp.Cost
				}
				if tp.Sample%stride == 0 {
					curve.Samples = append(curve.Samples, tp.Sample)
					curve.BestCost = append(curve.BestCost, best)
				}
			}
			runConvergenceMethod(ev, cfg, obj, method, trace)
			res.Curves = append(res.Curves, curve)
			if method == "Cocco" {
				coccoFinal = best
			}
		}

		// Samples to 1.05× of Cocco's final cost (Figure 12d).
		threshold := coccoFinal * 1.05
		for _, c := range res.Curves {
			if c.Model != m {
				continue
			}
			hit := 0
			for i, v := range c.BestCost {
				if v <= threshold {
					hit = c.Samples[i]
					break
				}
			}
			res.SamplesTo105[m][c.Method] = hit
		}
	}

	t := report.NewTable("Figure 12(d): samples to reach 1.05× of Cocco's final cost (0 = not reached)",
		append([]string{"model"}, methods...)...)
	for _, m := range modelsUnderTest {
		row := []any{m}
		for _, method := range methods {
			row = append(row, res.SamplesTo105[m][method])
		}
		t.AddRow(row...)
	}
	out := t.String()
	out += "convergence curves (CSV):\n"
	for _, c := range res.Curves {
		s := report.Series{Name: fmt.Sprintf("%s/%s", c.Model, c.Method),
			XLabel: "samples", YLabel: "best cost"}
		for i := range c.Samples {
			s.Add(float64(c.Samples[i]), c.BestCost[i])
		}
		out += s.CSV()
	}
	return res, out
}

// runConvergenceMethod executes one method with the trace hook attached.
// A Buf(X)+GA method runs a partition-only GA under its fixed buffer, and
// its trace cost is re-based to Formula 2 with that capacity.
func runConvergenceMethod(ev *eval.Evaluator, cfg Config, obj eval.Objective, method string, trace func(core.TracePoint)) {
	mem, fixed := fixedMem(strings.TrimSuffix(method, "+GA"), hw.SeparateBuffer)
	if !fixed {
		coExplore(ev, cfg, hw.SeparateBuffer, obj, method, trace)
		return
	}
	_, _, _ = core.Run(ev, core.Options{
		Seed: cfg.Seed, Workers: cfg.Workers, Population: cfg.Population, MaxSamples: cfg.CoOptSamples,
		Objective: eval.Objective{Metric: obj.Metric},
		Mem:       core.MemSearch{Fixed: mem},
		Trace: func(tp core.TracePoint) {
			if tp.Feasible {
				tp.Cost = obj.Of(tp.Metric, mem)
			}
			trace(tp)
		},
	})
}
