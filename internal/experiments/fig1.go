package experiments

import (
	"fmt"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/report"
)

// Fig1Point is one capacity sample of the Figure 1 trade-off.
type Fig1Point struct {
	CapacityKB int64
	EMAMB      float64
	Subgraphs  int
}

// Figure1Sweep regenerates the paper's framing figure: external memory
// access versus on-chip capacity. For each shared-buffer capacity on a
// coarse grid, a partition-only search finds the best EMA; the curve starts
// near the "max EMA" extreme (every layer reloaded) and saturates at the
// "min EMA" bound (weights + model input + output) — the diminishing
// marginal benefit Figure 2's survey observes in silicon.
func Figure1Sweep(cfg Config, model string) ([]Fig1Point, string) {
	ev := evaluatorFor(model, platform1())
	g := ev.Graph()

	var inB, outB int64
	for _, id := range g.Inputs() {
		inB += g.Node(id).OutBytes()
	}
	for _, id := range g.Outputs() {
		outB += g.Node(id).OutBytes()
	}
	minEMA := g.TotalWeightBytes() + inB + outB

	var pts []Fig1Point
	t := report.NewTable(fmt.Sprintf("Figure 1: EMA vs on-chip capacity (%s; min EMA = %s)",
		model, report.Bytes(minEMA)),
		"capacity(KB)", "EMA(MB)", "subgraphs")
	for _, kb := range []int64{128, 256, 512, 1024, 2048, 4096, 8192} {
		mem := hw.MemConfig{Kind: hw.SharedBuffer, GlobalBytes: kb * hw.KiB}
		best, _, err := core.Run(ev, core.Options{
			Seed:       cfg.Seed,
			Workers:    cfg.Workers,
			Population: cfg.Population,
			MaxSamples: cfg.FinalSamples,
			Objective:  eval.Objective{Metric: eval.MetricEMA},
			Mem:        core.MemSearch{Fixed: mem},
		})
		if err != nil {
			panic(fmt.Sprintf("figure1: %s @%dKB: %v", model, kb, err))
		}
		p := Fig1Point{
			CapacityKB: kb,
			EMAMB:      float64(best.Res.EMABytes) / 1e6,
			Subgraphs:  best.P.NumSubgraphs(),
		}
		pts = append(pts, p)
		t.AddRow(kb, fmt.Sprintf("%.2f", p.EMAMB), p.Subgraphs)
	}
	s := report.Series{Name: "fig1-" + model, XLabel: "capacity KB", YLabel: "EMA MB"}
	for _, p := range pts {
		s.Add(float64(p.CapacityKB), p.EMAMB)
	}
	return pts, t.String() + s.CSV()
}

// AblationPrefetchRow compares feasibility modeling with and without the
// double-buffered weight-prefetch constraint.
type AblationPrefetchRow struct {
	Model        string
	Prefetch     bool
	CostFormula2 float64
	MaxWgtKB     int64
	NumSubgraphs int
}

// AblationPrefetch quantifies the §5.1.2 weight-prefetch modeling choice:
// requiring consecutive subgraphs' weights to co-reside shrinks the feasible
// fusion space and can only raise the optimized cost.
func AblationPrefetch(cfg Config) ([]AblationPrefetchRow, string) {
	obj := eval.Objective{Metric: eval.MetricEnergy, Alpha: PaperAlpha}
	mem := paperFixedMem()
	var rows []AblationPrefetchRow
	t := report.NewTable("Ablation: single- vs double-buffered (prefetch) weight feasibility",
		"model", "prefetch", "cost", "max wgt/subgraph", "subgraphs")
	for _, m := range []string{"resnet50", "googlenet"} {
		for _, prefetch := range []bool{false, true} {
			ev := evaluatorFor(m, platform1())
			if prefetch {
				ev.EnablePrefetchCheck()
			}
			best, _, err := core.Run(ev, core.Options{
				Seed: cfg.Seed, Workers: cfg.Workers, Population: cfg.Population, MaxSamples: cfg.CoOptSamples,
				Objective: obj,
				Mem:       core.MemSearch{Fixed: mem},
			})
			if err != nil {
				t.AddRow(m, prefetch, "n/a", "n/a", "n/a")
				continue
			}
			row := AblationPrefetchRow{Model: m, Prefetch: prefetch, CostFormula2: best.Cost,
				MaxWgtKB: best.Res.MaxWgtFootprint / hw.KiB, NumSubgraphs: best.P.NumSubgraphs()}
			rows = append(rows, row)
			t.AddRow(m, prefetch, fmt.Sprintf("%.4g", best.Cost), row.MaxWgtKB, row.NumSubgraphs)
		}
	}
	return rows, t.String()
}
