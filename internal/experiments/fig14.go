package experiments

import (
	"fmt"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/report"
)

// Fig14Row is one (model, α) co-exploration outcome.
type Fig14Row struct {
	Model            string
	Alpha            float64
	CapacityMB       float64
	EnergyMJ         float64
	NormalizedEnergy float64 // vs the smallest α for the same model
}

// Figure14 sweeps the preference hyper-parameter α over
// {5e-4, 1e-3, 2e-3, 5e-3, 1e-2} on the four co-exploration models: larger
// α trades memory capacity for lower energy (§5.4.1).
func Figure14(cfg Config) ([]Fig14Row, string) {
	alphas := []float64{5e-4, 1e-3, 2e-3, 5e-3, 1e-2}

	var rows []Fig14Row
	t := report.NewTable("Figure 14: α sweep (energy normalized to α=5e-4 per model)",
		"model", "alpha", "capacity(MB)", "energy(mJ)", "norm energy")
	for _, m := range models.CoExplorationModels() {
		ev := evaluatorFor(m, platform1())
		var baseEnergy float64
		for i, a := range alphas {
			obj := eval.Objective{Metric: eval.MetricEnergy, Alpha: a}
			best, _, err := core.Run(ev, core.Options{
				Seed:       cfg.Seed,
				Workers:    cfg.Workers,
				Population: cfg.Population,
				MaxSamples: cfg.CoOptSamples,
				Objective:  obj,
				Mem:        core.PaperSpace(hw.SeparateBuffer),
			})
			if err != nil {
				panic(fmt.Sprintf("figure14: %s α=%g: %v", m, a, err))
			}
			row := Fig14Row{
				Model:      m,
				Alpha:      a,
				CapacityMB: float64(best.Mem.TotalBytes()) / (1 << 20),
				EnergyMJ:   best.Res.EnergyPJ / 1e9,
			}
			if i == 0 {
				baseEnergy = row.EnergyMJ
			}
			row.NormalizedEnergy = row.EnergyMJ / baseEnergy
			rows = append(rows, row)
			t.AddRow(m, fmt.Sprintf("%g", a), fmt.Sprintf("%.3f", row.CapacityMB),
				fmt.Sprintf("%.3f", row.EnergyMJ), fmt.Sprintf("%.3f", row.NormalizedEnergy))
		}
	}
	return rows, t.String()
}
