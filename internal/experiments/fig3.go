package experiments

import (
	"fmt"

	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/report"
)

// Fig3Row is one (model, L) measurement of the fusion-depth study.
type Fig3Row struct {
	Model   string
	L       int
	EMAMB   float64
	AvgBWGB float64
	// ReductionPct vs L=1 (negative numbers, as the paper annotates).
	EMAReductionPct float64
	BWReductionPct  float64
}

// Figure3 reproduces the motivation study (Figure 3): external memory access
// and average bandwidth requirement when fusing subgraphs of L=1, 3, 5
// consecutive layers on the 2 TOPS platform with 1 MB global and 1.125 MB
// weight buffers.
func Figure3() ([]Fig3Row, string) {
	memCfg := paperFixedMem()

	var rows []Fig3Row
	t := report.NewTable("Figure 3: subgraph fusion depth study (L = layers per subgraph)",
		"model", "L", "EMA(MB)", "avgBW(GB/s)", "ΔEMA vs L=1", "ΔBW vs L=1")
	for _, m := range models.CoExplorationModels() {
		ev := evaluatorFor(m, hw.DefaultPlatform())
		var base Fig3Row
		for _, l := range []int{1, 3, 5} {
			p := FixedDepthPartition(ev.Graph(), l)
			res := ev.Partition(p, memCfg)
			row := Fig3Row{
				Model:   m,
				L:       l,
				EMAMB:   float64(res.EMABytes) / 1e6,
				AvgBWGB: res.AvgBWBytesPerSec / 1e9,
			}
			if l == 1 {
				base = row
			} else {
				row.EMAReductionPct = 100 * (row.EMAMB - base.EMAMB) / base.EMAMB
				row.BWReductionPct = 100 * (row.AvgBWGB - base.AvgBWGB) / base.AvgBWGB
			}
			rows = append(rows, row)
			t.AddRow(m, l, fmt.Sprintf("%.2f", row.EMAMB), fmt.Sprintf("%.2f", row.AvgBWGB),
				fmt.Sprintf("%+.1f%%", row.EMAReductionPct), fmt.Sprintf("%+.1f%%", row.BWReductionPct))
		}
	}
	return rows, t.String()
}

// FixedDepthPartition chunks the compute nodes, in topological order, into
// runs of L consecutive layers (the paper's L=1,3,5 fusion configurations),
// splitting any disconnected chunk into its components.
func FixedDepthPartition(g *graph.Graph, l int) *partition.Partition {
	if l < 1 {
		l = 1
	}
	assign := make([]int, g.Len())
	for i := range assign {
		assign[i] = partition.Unassigned
	}
	for i, id := range g.ComputeNodes() {
		assign[id] = i / l
	}
	p, err := partition.FromRepaired(g, assign)
	if err != nil {
		// Consecutive topological runs always schedule; safety net only.
		return partition.Singletons(g)
	}
	return p
}
