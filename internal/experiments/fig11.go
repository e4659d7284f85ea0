package experiments

import (
	"errors"
	"fmt"

	"cocco/internal/baselines"
	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/models"
	"cocco/internal/report"
)

// Fig11Row is one (model, method) partition result.
type Fig11Row struct {
	Model, Method string
	EMAMB         float64
	BWGB          float64
	// Normalized to the Halide (greedy) baseline, as the paper plots.
	EMANorm, BWNorm float64
	Subgraphs       int
	Completed       bool
}

// Figure11 reproduces the graph-partition comparison (Figure 11, EMA-opt
// configuration): Halide's greedy, Irregular-NN's DP, Cocco, and the
// enumeration-based reference across the eight models, reporting EMA and
// bandwidth normalized to Halide. The enumeration reports "n/a" where its
// budget is exceeded (the paper's large irregular models).
func Figure11(cfg Config) ([]Fig11Row, string) {
	mem := paperFixedMem()
	obj := eval.Objective{Metric: eval.MetricEMA}

	var rows []Fig11Row
	t := report.NewTable("Figure 11: graph partition, EMA-opt (normalized to Halide greedy)",
		"model", "method", "EMA(MB)", "BW(GB/s)", "EMA-norm", "BW-norm", "subgraphs")

	for _, m := range models.PaperModels() {
		ev := evaluatorFor(m, platform1())

		gp, _ := baselines.Greedy(ev, mem, obj.Metric)
		gres := ev.Partition(gp, mem)
		base := Fig11Row{Model: m, Method: "Halide(Greedy)",
			EMAMB: float64(gres.EMABytes) / 1e6, BWGB: gres.AvgBWBytesPerSec / 1e9,
			EMANorm: 1, BWNorm: 1, Subgraphs: gp.NumSubgraphs(), Completed: true}

		dp, _ := baselines.DP(ev, mem, obj.Metric)
		dres := ev.Partition(dp, mem)

		best, _, err := core.Run(ev, core.Options{
			Seed:       cfg.Seed,
			Workers:    cfg.Workers,
			Population: cfg.Population,
			MaxSamples: cfg.PartitionSamples,
			Objective:  obj,
			Mem:        core.MemSearch{Fixed: mem},
		})
		if err != nil {
			panic(fmt.Sprintf("figure11: cocco failed on %s: %v", m, err))
		}

		ep, _, eerr := baselines.Enumerate(ev, mem, obj.Metric)

		add := func(method string, emaMB, bwGB float64, subs int, ok bool) {
			r := Fig11Row{Model: m, Method: method, EMAMB: emaMB, BWGB: bwGB,
				Subgraphs: subs, Completed: ok}
			if ok {
				r.EMANorm = emaMB / base.EMAMB
				r.BWNorm = bwGB / base.BWGB
			}
			rows = append(rows, r)
			if ok {
				t.AddRow(m, method, fmt.Sprintf("%.2f", emaMB), fmt.Sprintf("%.2f", bwGB),
					fmt.Sprintf("%.3f", r.EMANorm), fmt.Sprintf("%.3f", r.BWNorm), subs)
			} else {
				t.AddRow(m, method, "n/a", "n/a", "n/a", "n/a", "-")
			}
		}
		rows = append(rows, base)
		t.AddRow(m, base.Method, fmt.Sprintf("%.2f", base.EMAMB), fmt.Sprintf("%.2f", base.BWGB),
			"1.000", "1.000", base.Subgraphs)
		add("Irregular-NN(DP)", float64(dres.EMABytes)/1e6, dres.AvgBWBytesPerSec/1e9, dp.NumSubgraphs(), true)
		add("Cocco", float64(best.Res.EMABytes)/1e6, best.Res.AvgBWBytesPerSec/1e9, best.P.NumSubgraphs(), true)
		if eerr != nil {
			if !errors.Is(eerr, baselines.ErrBudget) {
				panic(fmt.Sprintf("figure11: enumeration failed on %s: %v", m, eerr))
			}
			add("Enumeration", 0, 0, 0, false)
		} else {
			eres := ev.Partition(ep, mem)
			add("Enumeration", float64(eres.EMABytes)/1e6, eres.AvgBWBytesPerSec/1e9, ep.NumSubgraphs(), true)
		}
	}
	return rows, t.String()
}
