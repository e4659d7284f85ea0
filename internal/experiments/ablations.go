package experiments

import (
	"fmt"
	"math"
	"time"

	"cocco/internal/baselines"
	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/report"
	"cocco/internal/search"
	"cocco/internal/tiling"
)

// AblationTilingRow compares the consumption-centric scheme's resident-tile
// buffer requirement against the production-centric baseline of Figure 4 on
// fixed-depth subgraphs.
type AblationTilingRow struct {
	Model string
	L     int
	// ProdOverConsRatio is production-centric bytes / consumption-centric
	// bytes, averaged over the model's subgraphs (≥ 1; higher = more saved).
	ProdOverConsRatio float64
}

// AblationTiling quantifies design choice 1 of DESIGN.md: how much resident
// buffer the consumption-centric flow saves over the production-centric one.
func AblationTiling() ([]AblationTilingRow, string) {
	var rows []AblationTilingRow
	t := report.NewTable("Ablation: production-centric vs consumption-centric resident tiles",
		"model", "L", "prod/cons footprint ratio")
	for _, m := range models.CoExplorationModels() {
		ev := evaluatorFor(m, platform1())
		g := ev.Graph()
		for _, l := range []int{3, 5} {
			p := FixedDepthPartition(g, l)
			var sumRatio float64
			var n int
			for _, members := range p.Subgraphs() {
				if len(members) < 2 {
					continue
				}
				s, err := tiling.Derive(g, members, tiling.DefaultConfig())
				if err != nil {
					continue
				}
				cons := s.TotalMainBytes()
				prod := tiling.ProductionFootprintBytes(g, members, s)
				if cons > 0 {
					sumRatio += float64(prod) / float64(cons)
					n++
				}
			}
			if n == 0 {
				continue
			}
			row := AblationTilingRow{Model: m, L: l, ProdOverConsRatio: sumRatio / float64(n)}
			rows = append(rows, row)
			t.AddRow(m, l, fmt.Sprintf("%.3f", row.ProdOverConsRatio))
		}
	}
	return rows, t.String()
}

// AblationGARow compares a GA variant against the full Cocco configuration.
type AblationGARow struct {
	Model, Variant string
	Cost           float64
	FeasibleRate   float64
}

// AblationGA quantifies design choices 2 and 3 of DESIGN.md: disabling the
// in-situ split repair (fewer valid samples) and disabling crossover
// (mutation-only GA) against the full configuration.
func AblationGA(cfg Config) ([]AblationGARow, string) {
	modelsUnderTest := []string{"resnet50", "googlenet"}
	obj := eval.Objective{Metric: eval.MetricEnergy, Alpha: PaperAlpha}
	variants := []struct {
		name             string
		noCross, noSplit bool
	}{
		{"full", false, false},
		{"no-crossover", true, false},
		{"no-insitu-split", false, true},
	}

	var rows []AblationGARow
	t := report.NewTable("Ablation: GA variants (co-exploration cost; feasible-sample rate)",
		"model", "variant", "cost", "feasible rate")
	for _, m := range modelsUnderTest {
		for _, v := range variants {
			ev := evaluatorFor(m, platform1())
			best, stats, err := core.Run(ev, core.Options{
				Seed:               cfg.Seed,
				Workers:            cfg.Workers,
				Population:         cfg.Population,
				MaxSamples:         cfg.CoOptSamples,
				Objective:          obj,
				DisableCrossover:   v.noCross,
				DisableInSituSplit: v.noSplit,
				Mem:                core.PaperSpace(hw.SeparateBuffer),
			})
			row := AblationGARow{Model: m, Variant: v.name}
			if stats != nil && stats.Samples > 0 {
				row.FeasibleRate = float64(stats.FeasibleSamples) / float64(stats.Samples)
			}
			costCol := "no feasible genome"
			if err == nil {
				row.Cost = best.Cost
				costCol = fmt.Sprintf("%.4g", row.Cost)
			} else {
				row.Cost = math.Inf(1)
			}
			rows = append(rows, row)
			t.AddRow(m, v.name, costCol, fmt.Sprintf("%.3f", row.FeasibleRate))
		}
	}
	return rows, t.String()
}

// AblationSeedRow compares GA initialization strategies.
type AblationSeedRow struct {
	Model, Init   string
	Cost          float64
	SamplesTo1_02 int
}

// AblationSeeding quantifies the paper's "flexible initialization" benefit
// (§4.3, benefit 4): seeding the GA population with the greedy baseline's
// partition against pure random initialization, measured by the samples
// needed to reach within 2% of the better final cost.
func AblationSeeding(cfg Config) ([]AblationSeedRow, string) {
	obj := eval.Objective{Metric: eval.MetricEMA}
	mem := paperFixedMem()
	var rows []AblationSeedRow
	t := report.NewTable("Ablation: GA initialization (random vs greedy-seeded)",
		"model", "init", "final EMA cost", "samples to 1.02×best")
	for _, m := range []string{"resnet50", "googlenet"} {
		// The target threshold comes from whichever variant ends better.
		type runOut struct {
			cost  float64
			curve []float64
		}
		run := func(seeded bool) runOut {
			ev := evaluatorFor(m, platform1())
			opt := core.Options{
				Seed: cfg.Seed, Workers: cfg.Workers, Population: cfg.Population, MaxSamples: cfg.CoOptSamples,
				Objective: obj,
				Mem:       core.MemSearch{Fixed: mem},
			}
			var curve []float64
			opt.Trace = func(tp core.TracePoint) { curve = append(curve, tp.BestCost) }
			if seeded {
				gp, _ := baselines.Greedy(ev, mem, obj.Metric)
				opt.Init = []*partition.Partition{gp}
			}
			best, _, err := core.Run(ev, opt)
			if err != nil {
				return runOut{cost: math.Inf(1)}
			}
			return runOut{cost: best.Cost, curve: curve}
		}
		random := run(false)
		seeded := run(true)
		target := 1.02 * math.Min(random.cost, seeded.cost)
		for _, v := range []struct {
			name string
			out  runOut
		}{{"random", random}, {"greedy-seeded", seeded}} {
			hit := 0
			for i, c := range v.out.curve {
				if c <= target {
					hit = i + 1
					break
				}
			}
			row := AblationSeedRow{Model: m, Init: v.name, Cost: v.out.cost, SamplesTo1_02: hit}
			rows = append(rows, row)
			t.AddRow(m, v.name, fmt.Sprintf("%.4g", v.out.cost), hit)
		}
	}
	return rows, t.String()
}

// AblationCacheRow reports memoization effectiveness.
type AblationCacheRow struct {
	Model    string
	Distinct int64
	Lookups  int64
	HitRate  float64
}

// AblationCache quantifies design choice 4 of DESIGN.md: the subgraph-cost
// cache hit rate over a co-exploration run (the cache is what makes
// 10^5-sample searches cheap). The rate is computed from distinct cached
// subgraphs rather than the raw hit counter, so the table is deterministic
// even when concurrent workers race on cold misses.
func AblationCache(cfg Config) ([]AblationCacheRow, string) {
	modelsUnderTest := []string{"resnet50", "googlenet"}
	obj := eval.Objective{Metric: eval.MetricEnergy, Alpha: PaperAlpha}
	var rows []AblationCacheRow
	t := report.NewTable("Ablation: subgraph-cost memoization", "model", "distinct", "lookups", "hit rate")
	for _, m := range modelsUnderTest {
		ev := evaluatorFor(m, platform1())
		_, _, err := core.Run(ev, core.Options{
			Seed: cfg.Seed, Workers: cfg.Workers, Population: cfg.Population, MaxSamples: cfg.CoOptSamples,
			Objective: obj,
			Mem:       core.PaperSpace(hw.SeparateBuffer),
		})
		if err != nil {
			continue
		}
		_, calls := ev.CacheStats()
		distinct := ev.CacheEntries()
		row := AblationCacheRow{Model: m, Distinct: distinct, Lookups: calls,
			HitRate: float64(calls-distinct) / float64(max(calls, 1))}
		rows = append(rows, row)
		t.AddRow(m, distinct, calls, fmt.Sprintf("%.4f", row.HitRate))
	}
	return rows, t.String()
}

// AblationIslandRow is one (model, island count) point of the island-model
// ablation.
type AblationIslandRow struct {
	Model   string
	Islands int
	// Cost is the best cost found with the total sample budget split evenly
	// across the islands.
	Cost float64
	// SamplesPerSec is aggregate search throughput (all islands' samples
	// over wall clock).
	SamplesPerSec float64
	// Migrations counts executed ring barriers.
	Migrations int
	// MatchesPlainGA records the islands=1 bit-identity cross-check against
	// core.Run; anything but true on the islands=1 row is a correctness bug
	// (the column is trivially true elsewhere).
	MatchesPlainGA bool
	// Err records a failed search (e.g. no feasible genome at this split
	// budget); the row's measurements are zero then.
	Err string
}

// AblationIslands quantifies the island-model orchestrator: the same total
// sample budget spent by 1, 2, and 4 migrating GA islands. Splitting a
// fixed budget shows what migration buys (or costs) in solution quality;
// the throughput column shows the scaling the orchestrator adds on
// multi-core hosts (BenchmarkSearchOrchestrator measures the
// per-island-budget scaling separately). The islands=1 row doubles as the
// determinism cross-check against the plain GA.
func AblationIslands(cfg Config) ([]AblationIslandRow, string) {
	modelsUnderTest := []string{"resnet50", "googlenet"}
	obj := eval.Objective{Metric: eval.MetricEMA}
	var rows []AblationIslandRow
	t := report.NewTable("Ablation: island-model search (fixed total budget, split across islands)",
		"model", "islands", "best cost", "samples/s", "migrations", "matches plain GA")
	for _, m := range modelsUnderTest {
		plain, _, plainErr := core.Run(evaluatorFor(m, platform1()), core.Options{
			Seed: cfg.Seed, Workers: cfg.Workers, Population: cfg.Population, MaxSamples: cfg.CoOptSamples,
			Objective: obj, Mem: core.MemSearch{Fixed: paperFixedMem()},
		})
		for _, islands := range []int{1, 2, 4} {
			ev := evaluatorFor(m, platform1())
			t0 := time.Now()
			best, stats, err := search.Run(ev, search.Options{
				Core: core.Options{
					Seed: cfg.Seed, Workers: cfg.Workers, Population: cfg.Population,
					MaxSamples: cfg.CoOptSamples / islands,
					Objective:  obj, Mem: core.MemSearch{Fixed: paperFixedMem()},
				},
				Islands: islands,
			})
			el := time.Since(t0).Seconds()
			if err != nil {
				// Keep the failed point visible instead of silently
				// truncating the table.
				row := AblationIslandRow{Model: m, Islands: islands, Err: err.Error()}
				rows = append(rows, row)
				t.AddRow(m, islands, "error: "+row.Err, "-", "-", "-")
				continue
			}
			row := AblationIslandRow{
				Model: m, Islands: islands,
				Cost:          best.Cost,
				SamplesPerSec: float64(stats.Samples) / el,
				Migrations:    stats.Migrations,
				MatchesPlainGA: islands != 1 ||
					(plainErr == nil && plain.Cost == best.Cost),
			}
			rows = append(rows, row)
			t.AddRow(m, islands, fmt.Sprintf("%.4g", row.Cost),
				fmt.Sprintf("%.0f", row.SamplesPerSec), row.Migrations, row.MatchesPlainGA)
		}
	}
	return rows, t.String()
}

// MinEMABounds prints, per model, the Figure 1 bounds: the maximum EMA
// (no on-chip reuse at all) and the minimum EMA (weights + model input +
// model output), bracketing every partition result.
func MinEMABounds() string {
	t := report.NewTable("Figure 1 bounds: EMA extremes per model",
		"model", "min EMA (wgt+in+out)", "singleton EMA", "whole-graph EMA")
	for _, m := range []string{"vgg16", "resnet50", "googlenet", "randwire-a"} {
		ev := evaluatorFor(m, platform1())
		g := ev.Graph()
		mem := paperFixedMem()
		var inB, outB int64
		for _, id := range g.Inputs() {
			inB += g.Node(id).OutBytes()
		}
		for _, id := range g.Outputs() {
			outB += g.Node(id).OutBytes()
		}
		minEMA := g.TotalWeightBytes() + inB + outB
		sing := ev.Partition(partition.Singletons(g), mem)
		whole := ev.Partition(partition.Whole(g), mem)
		t.AddRow(m, report.Bytes(minEMA), report.Bytes(sing.EMABytes), report.Bytes(whole.EMABytes))
	}
	return t.String()
}
