package experiments

import (
	"fmt"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/report"
)

// Table3Row is one (model, cores, batch) outcome of the multi-core / batch
// study.
type Table3Row struct {
	Model        string
	Cores, Batch int
	EnergyMJ     float64
	LatencyMS    float64
	// SharedKB is the chosen shared buffer size per core.
	SharedKB int64
}

// Table3 reproduces the multi-core and batch-size evaluation (Table 3):
// energy, latency, and the co-explored shared buffer size per core for
// cores ∈ {1,2,4} × batch ∈ {1,2,8} on the four models, using the
// energy-capacity co-optimization. Weights of a subgraph are shared across
// cores over the crossbar (§5.4.2); batch samples reuse resident weights
// (§5.4.3).
func Table3(cfg Config) ([]Table3Row, string) {
	obj := eval.Objective{Metric: eval.MetricEnergy, Alpha: PaperAlpha}

	var rows []Table3Row
	t := report.NewTable("Table 3: multi-core and batch study (shared buffer, energy-capacity co-opt)",
		"model", "cores", "batch", "energy(mJ)", "latency(ms)", "size(KB)")
	for _, m := range models.CoExplorationModels() {
		for _, cores := range []int{1, 2, 4} {
			for _, batch := range []int{1, 2, 8} {
				pl := platform1()
				pl.Cores = cores
				pl.Batch = batch
				ev := evaluatorFor(m, pl)
				best, _, err := core.Run(ev, core.Options{
					Seed:       cfg.Seed,
					Workers:    cfg.Workers,
					Population: cfg.Population,
					MaxSamples: cfg.CoOptSamples,
					Objective:  obj,
					Mem:        core.PaperSpace(hw.SharedBuffer),
				})
				if err != nil {
					panic(fmt.Sprintf("table3: %s c=%d b=%d: %v", m, cores, batch, err))
				}
				row := Table3Row{
					Model: m, Cores: cores, Batch: batch,
					EnergyMJ:  best.Res.EnergyPJ / 1e9,
					LatencyMS: ev.LatencySeconds(best.Res.LatencyCycles) * 1e3,
					SharedKB:  best.Mem.GlobalBytes / hw.KiB,
				}
				rows = append(rows, row)
				t.AddRow(m, cores, batch, fmt.Sprintf("%.2f", row.EnergyMJ),
					fmt.Sprintf("%.2f", row.LatencyMS), row.SharedKB)
			}
		}
	}
	return rows, t.String()
}
