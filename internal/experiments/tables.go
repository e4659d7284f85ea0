package experiments

import (
	"fmt"

	"cocco/internal/baselines"
	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/report"
)

// PaperAlpha is the preference hyper-parameter of the co-exploration studies
// (§5.3: α = 0.002, energy in pJ, capacity in bytes).
const PaperAlpha = 0.002

// CoOptRow is one (model, method) co-exploration outcome.
type CoOptRow struct {
	Model, Method  string
	Mem            hw.MemConfig
	Cost           float64 // Formula 2: bytes + α·pJ
	EnergyPJ       float64
	FinalPartition *partition.Partition
}

// CoOptMethods lists the method names in the tables' order.
func CoOptMethods() []string {
	return []string{"Buf(S)", "Buf(M)", "Buf(L)", "RS+GA", "GS+GA", "SA", "Cocco"}
}

// Table1 reproduces the separate-buffer co-exploration (Table 1): fixed
// Small/Medium/Large buffers, the two-step RS+GA and GS+GA schemes, SA, and
// Cocco on ResNet50, GoogleNet, RandWire, and NasNet with the
// energy-capacity objective.
func Table1(cfg Config) ([]CoOptRow, string) {
	return coOptStudy(cfg, hw.SeparateBuffer,
		"Table 1: hardware-mapping co-exploration, separate buffers (cost = bytes + α·pJ, α=0.002)")
}

// Table2 reproduces the shared-buffer co-exploration (Table 2).
func Table2(cfg Config) ([]CoOptRow, string) {
	return coOptStudy(cfg, hw.SharedBuffer,
		"Table 2: hardware-mapping co-exploration, shared buffer (cost = bytes + α·pJ, α=0.002)")
}

func coOptStudy(cfg Config, kind hw.BufferKind, title string) ([]CoOptRow, string) {
	obj := eval.Objective{Metric: eval.MetricEnergy, Alpha: PaperAlpha}

	var rows []CoOptRow
	t := report.NewTable(title, "model", "method", "size(A)", "size(W)", "cost", "energy")
	for _, m := range models.CoExplorationModels() {
		ev := evaluatorFor(m, platform1())
		for _, method := range CoOptMethods() {
			mem, ok := exploreMem(ev, cfg, kind, obj, method)
			if !ok {
				t.AddRow(m, method, "n/a", "n/a", "n/a", "n/a")
				continue
			}
			cost, res, p := finalPartitionCost(ev, mem, obj, cfg)
			row := CoOptRow{Model: m, Method: method, Mem: mem, Cost: cost,
				EnergyPJ: res.EnergyPJ, FinalPartition: p}
			rows = append(rows, row)
			wcol := report.Bytes(mem.WeightBytes)
			if kind == hw.SharedBuffer {
				wcol = "-"
			}
			t.AddRow(m, method, report.Bytes(mem.GlobalBytes), wcol,
				fmt.Sprintf("%.3E", cost), report.MJ(res.EnergyPJ))
		}
	}
	return rows, t.String()
}

// fixedBufs are the paper's fixed Small/Medium/Large buffers (§5.3), in
// KiB: the separate design's global and weight capacities. The shared
// design's one capacity is the weight figure.
var fixedBufs = []struct {
	method         string
	global, weight int64
}{{"Buf(S)", 512, 576}, {"Buf(M)", 1024, 1152}, {"Buf(L)", 2048, 2304}}

// fixedMem returns a fixed-buffer method's memory for the design, and false
// for a method that explores memory.
func fixedMem(method string, kind hw.BufferKind) (hw.MemConfig, bool) {
	for _, b := range fixedBufs {
		if b.method != method {
			continue
		}
		if kind == hw.SharedBuffer {
			return hw.MemConfig{Kind: kind, GlobalBytes: b.weight * hw.KiB}, true
		}
		return hw.MemConfig{Kind: kind, GlobalBytes: b.global * hw.KiB, WeightBytes: b.weight * hw.KiB}, true
	}
	return hw.MemConfig{}, false
}

// exploreMem runs the method's hardware-exploration phase and returns the
// chosen memory configuration.
func exploreMem(ev *eval.Evaluator, cfg Config, kind hw.BufferKind, obj eval.Objective, method string) (hw.MemConfig, bool) {
	if mem, ok := fixedMem(method, kind); ok {
		return mem, true
	}
	if best := coExplore(ev, cfg, kind, obj, method, nil); best != nil {
		return best.Mem, true
	}
	return hw.MemConfig{}, false
}

// coExplore runs one of the methods that explore memory (RS+GA, GS+GA, SA
// and Cocco) over the paper's space for the design, reporting every sample
// to trace when it is non-nil. It returns the best genome, or nil when the
// method found no feasible one.
func coExplore(ev *eval.Evaluator, cfg Config, kind hw.BufferKind, obj eval.Objective, method string, trace func(core.TracePoint)) *core.Genome {
	space := core.PaperSpace(kind)
	var best *core.Genome
	var err error
	switch method {
	case "RS+GA", "GS+GA":
		sm := baselines.RandomSearch
		if method == "GS+GA" {
			sm = baselines.GridSearch
		}
		best, err = baselines.TwoStep(ev, baselines.TwoStepOptions{
			Seed:                cfg.Seed,
			Workers:             cfg.Workers,
			Method:              sm,
			Candidates:          cfg.TwoStepCandidates,
			SamplesPerCandidate: cfg.CoOptSamples / maxInt(cfg.TwoStepCandidates, 1),
			Kind:                kind,
			Global:              space.Global,
			Weight:              space.Weight,
			Objective:           obj,
			Trace:               trace,
		})
	case "SA":
		best, err = baselines.SA(ev, baselines.SAOptions{
			Seed:       cfg.Seed,
			MaxSamples: cfg.CoOptSamples,
			Objective:  obj,
			Mem:        space,
			Trace:      trace,
		})
	case "Cocco":
		best, _, err = core.Run(ev, core.Options{
			Seed:       cfg.Seed,
			Workers:    cfg.Workers,
			Population: cfg.Population,
			MaxSamples: cfg.CoOptSamples,
			Objective:  obj,
			Mem:        space,
			Trace:      trace,
		})
	}
	if err != nil {
		return nil
	}
	return best
}

// finalPartitionCost runs the final partition-only Cocco pass at the chosen
// configuration (§5.3.1) and evaluates Formula 2.
func finalPartitionCost(ev *eval.Evaluator, mem hw.MemConfig, obj eval.Objective, cfg Config) (float64, *eval.Result, *partition.Partition) {
	best, _, err := core.Run(ev, core.Options{
		Seed:       cfg.Seed + 7,
		Workers:    cfg.Workers,
		Population: cfg.Population,
		MaxSamples: cfg.FinalSamples,
		Objective:  obj,
		Mem:        core.MemSearch{Fixed: mem},
	})
	if err != nil {
		// Every configuration admits the all-singleton partition, so this
		// is unreachable in practice.
		p := partition.Singletons(ev.Graph())
		cost, res := ev.Cost(p, mem, obj)
		return cost, res, p
	}
	cost, res := ev.Cost(best.P, mem, obj)
	return cost, res, best.P
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
