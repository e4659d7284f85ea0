package experiments

import (
	"fmt"
	"math"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/report"
)

// Fig13Group summarizes one group of consecutive samples during a Cocco
// co-exploration: where the population's (total buffer size, energy) points
// sit (Figure 13 plots the raw scatter; we report per-group centroids, which
// carry the figure's message — the distribution moves to a lower intercept
// and centralizes).
type Fig13Group struct {
	Group          int
	Samples        int
	MeanBufferMB   float64
	MeanEnergyMJ   float64
	MeanCost       float64
	StdDevBufferMB float64
}

// Figure13 runs Cocco with the paper's 20-generation × 500-genome setting
// (scaled by cfg) on the four co-exploration models and reports the
// sample-distribution trajectory in ten groups.
func Figure13(cfg Config) (map[string][]Fig13Group, string) {
	obj := eval.Objective{Metric: eval.MetricEnergy, Alpha: PaperAlpha}
	const groups = 10

	out := map[string][]Fig13Group{}
	var text string
	for _, m := range models.CoExplorationModels() {
		ev := evaluatorFor(m, platform1())
		type pt struct {
			buf    float64
			energy float64
			cost   float64
		}
		var pts []pt
		_, _, err := core.Run(ev, core.Options{
			Seed:       cfg.Seed,
			Workers:    cfg.Workers,
			Population: cfg.Population,
			MaxSamples: cfg.CoOptSamples,
			Objective:  obj,
			Mem:        core.PaperSpace(hw.SeparateBuffer),
			Trace: func(tp core.TracePoint) {
				if !tp.Feasible {
					return
				}
				pts = append(pts, pt{
					buf:    float64(tp.Mem.TotalBytes()) / (1 << 20),
					energy: tp.Metric / 1e9,
					cost:   tp.Cost,
				})
			},
		})
		if err != nil {
			panic(fmt.Sprintf("figure13: %s: %v", m, err))
		}

		per := maxInt(len(pts)/groups, 1)
		t := report.NewTable(fmt.Sprintf("Figure 13 (%s): sample distribution per group (α=%g)", m, PaperAlpha),
			"group", "samples", "mean buf(MB)", "σ buf(MB)", "mean energy(mJ)", "mean cost")
		var gs []Fig13Group
		for gi := 0; gi < groups; gi++ {
			lo, hi := gi*per, (gi+1)*per
			if gi == groups-1 {
				hi = len(pts)
			}
			if lo >= hi {
				break
			}
			var sumB, sumB2, sumE, sumC float64
			for _, p := range pts[lo:hi] {
				sumB += p.buf
				sumB2 += p.buf * p.buf
				sumE += p.energy
				sumC += p.cost
			}
			n := float64(hi - lo)
			gr := Fig13Group{
				Group:        gi,
				Samples:      hi - lo,
				MeanBufferMB: sumB / n,
				MeanEnergyMJ: sumE / n,
				MeanCost:     sumC / n,
			}
			varB := sumB2/n - gr.MeanBufferMB*gr.MeanBufferMB
			if varB > 0 {
				gr.StdDevBufferMB = math.Sqrt(varB)
			}
			gs = append(gs, gr)
			t.AddRow(gi, gr.Samples, fmt.Sprintf("%.3f", gr.MeanBufferMB),
				fmt.Sprintf("%.3f", gr.StdDevBufferMB),
				fmt.Sprintf("%.3f", gr.MeanEnergyMJ), fmt.Sprintf("%.4g", gr.MeanCost))
		}
		out[m] = gs
		text += t.String()
	}
	return out, text
}
