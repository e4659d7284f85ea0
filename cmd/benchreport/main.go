// Command benchreport runs the repo's performance-tracking workloads through
// testing.Benchmark and records the results as JSON, so the perf trajectory
// of the evaluation engine lives in version control instead of scrollback.
//
//	go run ./cmd/benchreport -o BENCH_coldpath.json
//
// Three workloads are measured:
//
//   - cold: the cold-path workload of BenchmarkColdEval — a fresh evaluator
//     scoring a fixed seeded set of random partitions per model, so every
//     subgraph pays the full computeSubgraph + tiling derivation.
//   - delta: the warm mutation-dominated workload of BenchmarkDeltaEval —
//     full-recompute vs carried-handle evaluation of single-mutation
//     offspring.
//   - ga: the end-to-end seeded GA of BenchmarkGAParallel at increasing
//     worker counts (delta engine).
//
// Cold results are compared against the recorded pre-overhaul baseline (the
// PR-2 tree, commit e055771, measured on the reference dev box) so the
// speedup of the dense-indexing overhaul is part of the report.
//
// A fourth workload, search_orchestrator (-orch, BENCH_searchorch.json),
// measures the island-model orchestrator: aggregate samples/s as the same
// per-island budget runs on 1, 2, and 4 islands over a shared evaluator.
// The scaling column is hardware-dependent — island steps overlap across
// cores — so the report records the host CPU count alongside it.
//
// A fifth workload, dse (-dse, BENCH_dse.json), measures the
// GraphContext/Evaluator split that the batched multi-config DSE driver
// rests on: per-model evaluator-construction cost standalone (eval.New,
// full graph-derived cold path) vs from a warm shared context
// (GraphContext.NewEvaluator), and sweep throughput (configs/s) at widths
// 1, 8, and 64 with per-config rebuild vs one shared context. The workload
// asserts the split's contract — warm shared construction at least 5x
// faster than standalone on every zoo model, and the shared sweep beating
// rebuild at widths >= 8 — and exits non-zero if either fails.
//
// A seventh workload, distsearch (-distsearch, BENCH_distsearch.json),
// measures the distributed island search: aggregate samples/s for the same
// 4-island ring run in-process vs across 1/2/4 worker processes (the binary
// re-executes itself in a hidden -dist-worker mode). Every contender is
// pinned to one evaluation goroutine per process, so process count is the
// scaling axis; the >=1.8x floor for the 4-process fleet is asserted only on
// hosts with at least 4 CPUs (a 1-CPU host honestly reports parity or
// below).
//
// A sixth workload, cachewarm (-cachewarm, BENCH_cachewarm.json), measures
// the persistent cost cache: the first search over a fixed partition set,
// cold vs warm-started from a prior run's snapshot (decode + keep-first
// load included in the warm timing), per zoo model. It asserts the warm
// first search is at least 2x the cold one on the large dense/cell-wired
// models (where per-subgraph costing dominates) and exits non-zero
// otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/search"
	"cocco/internal/serialize"
	"cocco/internal/tiling"
)

// coldBaseline is the pre-overhaul BenchmarkColdEval result per model
// (evals/s, allocs/op), recorded before the dense-indexing rework so every
// future report shows the trajectory against a fixed reference point.
var coldBaseline = map[string][2]float64{
	"densenet121": {1130, 49052},
	"googlenet":   {5560, 11463},
	"gpt":         {3731, 17627},
	"mobilenetv2": {8890, 8029},
	"nasnet":      {1534, 39368},
	"randwire-a":  {3394, 17405},
	"randwire-b":  {2207, 26716},
	"resnet152":   {2556, 27650},
	"resnet50":    {7445, 9546},
	"transformer": {8152, 8477},
	"unet":        {20303, 3841},
	"vgg16":       {33841, 2528},
}

// searchMutationBaseline is the pre-overhaul BenchmarkMutationOps result per
// model (ops/s, allocs/op), recorded on the PR-3 tree (commit 518d72f,
// reference dev box) before the dense partition-operator workspace landed.
var searchMutationBaseline = map[string][2]float64{
	"densenet121": {6578, 894},
	"googlenet":   {29448, 258},
	"gpt":         {17561, 433},
	"mobilenetv2": {36981, 225},
	"nasnet":      {6853, 887},
	"randwire-a":  {16508, 382},
	"randwire-b":  {9925, 569},
	"resnet152":   {10605, 694},
	"resnet50":    {32874, 256},
	"transformer": {36063, 233},
	"unet":        {70948, 116},
	"vgg16":       {130889, 76},
}

// searchGABaseline is the pre-overhaul end-to-end GA throughput
// (samples/s, 1000 samples, Workers=4, no genome memo) on the same tree.
var searchGABaseline = map[string]float64{
	"resnet50":  9278,
	"googlenet": 12256,
	"nasnet":    3370,
}

// searchGAModels is the subset of the zoo the end-to-end GA workload runs on
// (a full zoo sweep of whole searches would dominate the report's runtime).
var searchGAModels = []string{"resnet50", "googlenet", "nasnet"}

type coldRow struct {
	Model       string  `json:"model"`
	EvalsPerSec float64 `json:"evals_per_sec"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`

	// Trajectory vs the recorded pre-overhaul baseline (0 if unknown model).
	BaselineEvalsPerSec float64 `json:"baseline_evals_per_sec,omitempty"`
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op,omitempty"`
	Speedup             float64 `json:"speedup,omitempty"`
	AllocReduction      float64 `json:"alloc_reduction,omitempty"`
}

type deltaRow struct {
	Engine      string  `json:"engine"`
	EvalsPerSec float64 `json:"evals_per_sec"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type gaRow struct {
	Workers     int     `json:"workers"`
	EvalsPerSec float64 `json:"evals_per_sec"`
	NsPerOp     float64 `json:"ns_per_op"`
}

type report struct {
	Bench    string     `json:"bench"`
	Go       string     `json:"go"`
	GOOS     string     `json:"goos"`
	GOARCH   string     `json:"goarch"`
	NumCPU   int        `json:"num_cpu"`
	Baseline string     `json:"baseline"`
	Cold     []coldRow  `json:"cold_eval"`
	Delta    []deltaRow `json:"delta_eval"`
	GA       []gaRow    `json:"ga_parallel"`
}

// mutationRow is one model of the search_path mutation workload
// (BenchmarkMutationOps: modify/split/merge/crossover cycle, no evaluation).
type mutationRow struct {
	Model       string  `json:"model"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`

	BaselineOpsPerSec   float64 `json:"baseline_ops_per_sec,omitempty"`
	BaselineAllocsPerOp float64 `json:"baseline_allocs_per_op,omitempty"`
	Speedup             float64 `json:"speedup,omitempty"`
	AllocReduction      float64 `json:"alloc_reduction,omitempty"`
}

// searchGARow is one (model, memo setting) of the search_path end-to-end GA
// workload.
type searchGARow struct {
	Model         string  `json:"model"`
	Memo          bool    `json:"memo"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	NsPerOp       float64 `json:"ns_per_op"`
	MemoHits      int     `json:"memo_hits,omitempty"`

	BaselineSamplesPerSec float64 `json:"baseline_samples_per_sec,omitempty"`
	Speedup               float64 `json:"speedup,omitempty"`
}

// searchReport is the search_path workload file (BENCH_searchpath.json):
// candidate-generation throughput plus end-to-end GA samples/sec with the
// genome memo on and off, against the embedded pre-overhaul baseline.
type searchReport struct {
	Bench    string        `json:"bench"`
	Go       string        `json:"go"`
	GOOS     string        `json:"goos"`
	GOARCH   string        `json:"goarch"`
	NumCPU   int           `json:"num_cpu"`
	Baseline string        `json:"baseline"`
	Mutation []mutationRow `json:"mutation_ops"`
	GA       []searchGARow `json:"ga_search"`
}

// orchRow is one (model, island count) of the search_orchestrator workload.
type orchRow struct {
	Model         string  `json:"model"`
	Islands       int     `json:"islands"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	NsPerOp       float64 `json:"ns_per_op"`
	// SpeedupVs1 is aggregate samples/s relative to the same model's
	// single-island row.
	SpeedupVs1 float64 `json:"speedup_vs_1,omitempty"`
	// Migrations is the number of ring barriers the run executed.
	Migrations int `json:"migrations"`
}

// orchReport is the search_orchestrator workload file (BENCH_searchorch.json).
type orchReport struct {
	Bench  string    `json:"bench"`
	Go     string    `json:"go"`
	GOOS   string    `json:"goos"`
	GOARCH string    `json:"goarch"`
	NumCPU int       `json:"num_cpu"`
	Note   string    `json:"note"`
	Rows   []orchRow `json:"search_orchestrator"`
}

// dseConstructRow is one zoo model of the dse construction workload.
type dseConstructRow struct {
	Model string `json:"model"`
	// StandaloneNsPerOp is one eval.New: per-node tables, tiling Deriver
	// validation, and the compute-cycle table, all from scratch.
	StandaloneNsPerOp float64 `json:"standalone_ns_per_op"`
	// SharedNsPerOp is one GraphContext.NewEvaluator against a warm context
	// (the cost every config after the first pays in a sweep).
	SharedNsPerOp float64 `json:"shared_ns_per_op"`
	Speedup       float64 `json:"speedup"`
}

// dseSweepRow is one (model, width) of the dse sweep-throughput workload.
type dseSweepRow struct {
	Model string `json:"model"`
	// Width is the number of platform configs built per sweep.
	Width int `json:"width"`
	// RebuildConfigsPerSec builds every config with standalone eval.New;
	// SharedConfigsPerSec builds one GraphContext per sweep and derives
	// every config's evaluator from it (context cost included).
	RebuildConfigsPerSec float64 `json:"rebuild_configs_per_sec"`
	SharedConfigsPerSec  float64 `json:"shared_configs_per_sec"`
	Speedup              float64 `json:"speedup"`
}

// dseCacheShareRow is one (model, width) of the cacheshare dimension:
// sweep throughput in configs/s where every config EVALUATES a fixed
// seeded partition set, with the subgraph-cost cache shared across the
// sweep's evaluators (one GraphContext) vs private per config (a fresh
// context per config, so each pays its own cold costing).
type dseCacheShareRow struct {
	Model                string  `json:"model"`
	Width                int     `json:"width"`
	PrivateConfigsPerSec float64 `json:"private_configs_per_sec"`
	SharedConfigsPerSec  float64 `json:"shared_configs_per_sec"`
	Speedup              float64 `json:"speedup"`
}

// dseReport is the dse workload file (BENCH_dse.json).
type dseReport struct {
	Bench      string             `json:"bench"`
	Go         string             `json:"go"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NumCPU     int                `json:"num_cpu"`
	Note       string             `json:"note"`
	Construct  []dseConstructRow  `json:"construct"`
	Sweep      []dseSweepRow      `json:"sweep"`
	CacheShare []dseCacheShareRow `json:"cacheshare"`
}

// cachewarmRow is one zoo model of the cachewarm workload: the first search
// over a fixed partition set, cold vs warm-started from a prior run's
// cost-cache snapshot (decode + LoadCache included in the warm timing).
type cachewarmRow struct {
	Model           string  `json:"model"`
	ColdEvalsPerSec float64 `json:"cold_evals_per_sec"`
	WarmEvalsPerSec float64 `json:"warm_evals_per_sec"`
	Speedup         float64 `json:"speedup"`
	// SnapshotEntries and SnapshotBytes size the warm-start asset.
	SnapshotEntries int `json:"snapshot_entries"`
	SnapshotBytes   int `json:"snapshot_bytes"`
}

// cachewarmReport is the cachewarm workload file (BENCH_cachewarm.json).
type cachewarmReport struct {
	Bench  string         `json:"bench"`
	Go     string         `json:"go"`
	GOOS   string         `json:"goos"`
	GOARCH string         `json:"goarch"`
	NumCPU int            `json:"num_cpu"`
	Note   string         `json:"note"`
	Rows   []cachewarmRow `json:"cachewarm"`
}

// cachewarmFloorModels are the large dense/cell-wired zoo models the >=2x
// warm-start floor is asserted on. Chain-style models (the resnets, vgg16)
// still report their ratio but are not floored: their random partitions cut
// into many small subgraphs whose cold costing is cheap relative to the
// per-lookup work a warm hit still pays (key build + hash + probe), so
// their structural gain sits around 1.4-2.1x. Dense adjacency makes the
// per-subgraph footprint derivation expensive, which is exactly what the
// snapshot elides.
var cachewarmFloorModels = map[string]bool{
	"densenet121": true,
	"nasnet":      true,
	"randwire-a":  true,
	"randwire-b":  true,
}

// cachewarmWorkload measures one model's cold vs warm-loaded first search:
// the same seeded partition set scored by a fresh evaluator, with the warm
// side decoding and loading a snapshot exported from an identical prior run
// before its first evaluation.
func cachewarmWorkload(model string, nparts int) (cachewarmRow, error) {
	g, err := models.Build(model)
	if err != nil {
		return cachewarmRow{}, err
	}
	rng := rand.New(rand.NewSource(3))
	parts := make([]*partition.Partition, nparts)
	for i := range parts {
		parts[i] = core.RandomPartition(g, rng, 0.3)
	}
	mem := defaultMem()

	// The "prior run": evaluate the same workload once and snapshot.
	prior := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	for _, p := range parts {
		prior.Partition(p, mem)
	}
	snap, err := prior.ExportCache()
	if err != nil {
		return cachewarmRow{}, err
	}
	data, err := serialize.EncodeCostCache(snap)
	if err != nil {
		return cachewarmRow{}, err
	}

	cold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
			for _, p := range parts {
				ev.Partition(p, mem)
			}
		}
	})
	warm := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
			loaded, err := serialize.DecodeCostCache(data)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ev.LoadCache(loaded); err != nil {
				b.Fatal(err)
			}
			for _, p := range parts {
				ev.Partition(p, mem)
			}
		}
	})
	row := cachewarmRow{
		Model:           model,
		ColdEvalsPerSec: float64(nparts) * float64(cold.N) / cold.T.Seconds(),
		WarmEvalsPerSec: float64(nparts) * float64(warm.N) / warm.T.Seconds(),
		SnapshotEntries: len(snap.Entries),
		SnapshotBytes:   len(data),
	}
	if row.ColdEvalsPerSec > 0 {
		row.Speedup = row.WarmEvalsPerSec / row.ColdEvalsPerSec
	}
	return row, nil
}

// cachewarmParts is the fixed partition-set size of the cachewarm workload.
// Unlike the other workloads it does NOT shrink under -quick: the >=2x floor
// is a claim about this exact workload, and a smaller set amortizes the
// warm side's decode+load over too few evaluations to make that claim.
const cachewarmParts = 8

// runCachewarmWorkload runs the warm-start workload over the zoo and writes
// out, returning false when the floor assertion failed.
func runCachewarmWorkload(out string) bool {
	rep := cachewarmReport{
		Bench:  "cachewarm",
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
		Note:   "first search over a fixed partition set, cold vs warm-started from a prior run's cost-cache snapshot (decode+load included in warm timing); >=2x floor asserted on the large dense/cell-wired models (chain-style models cost small subgraphs too cheaply for the floor)",
	}
	failed := false
	for _, model := range models.Names() {
		row, err := cachewarmWorkload(model, cachewarmParts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: cachewarm %s: %v\n", model, err)
			os.Exit(1)
		}
		fmt.Printf("warm  %-12s cold %9.0f evals/s  warm %9.0f evals/s  (%.1fx, %d entries, %s)\n",
			row.Model, row.ColdEvalsPerSec, row.WarmEvalsPerSec, row.Speedup, row.SnapshotEntries, fmtBytes(row.SnapshotBytes))
		if cachewarmFloorModels[model] && row.Speedup < 2 {
			fmt.Fprintf(os.Stderr, "benchreport: cachewarm: %s warm-loaded first search only %.2fx cold (want >= 2x)\n",
				model, row.Speedup)
			failed = true
		}
		rep.Rows = append(rep.Rows, row)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: marshal cachewarm: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: write cachewarm: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", out)
	return !failed
}

// fmtBytes renders a byte count for the progress lines.
func fmtBytes(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	}
	return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
}

// dseConstructWorkload measures standalone vs warm-shared-context evaluator
// construction for one model.
func dseConstructWorkload(model string) (dseConstructRow, error) {
	g, err := models.Build(model)
	if err != nil {
		return dseConstructRow{}, err
	}
	platform := hw.DefaultPlatform()
	standalone := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eval.MustNew(g, platform, tiling.DefaultConfig())
		}
	})
	gc := eval.NewGraphContext(g, tiling.DefaultConfig())
	gc.MustNewEvaluator(platform) // warm the context's cycle-table memo
	shared := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gc.MustNewEvaluator(platform)
		}
	})
	row := dseConstructRow{
		Model:             model,
		StandaloneNsPerOp: float64(standalone.NsPerOp()),
		SharedNsPerOp:     float64(shared.NsPerOp()),
	}
	if row.SharedNsPerOp > 0 {
		row.Speedup = row.StandaloneNsPerOp / row.SharedNsPerOp
	}
	return row, nil
}

// dseSweepPlatforms returns width platform variants sweeping the cores and
// batch axes over a fixed core geometry, like a real DSE grid.
func dseSweepPlatforms(width int) []hw.Platform {
	out := make([]hw.Platform, width)
	for i := range out {
		p := hw.DefaultPlatform()
		p.Cores = i%4 + 1
		p.Batch = 1 << (i % 3)
		out[i] = p
	}
	return out
}

// dseSweepWorkload measures configs/s at the given sweep width, per-config
// rebuild vs shared context.
func dseSweepWorkload(model string, width int) (dseSweepRow, error) {
	g, err := models.Build(model)
	if err != nil {
		return dseSweepRow{}, err
	}
	platforms := dseSweepPlatforms(width)
	rebuild := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range platforms {
				eval.MustNew(g, p, tiling.DefaultConfig())
			}
		}
	})
	shared := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gc := eval.NewGraphContext(g, tiling.DefaultConfig())
			for _, p := range platforms {
				gc.MustNewEvaluator(p)
			}
		}
	})
	row := dseSweepRow{
		Model:                model,
		Width:                width,
		RebuildConfigsPerSec: float64(width) * float64(rebuild.N) / rebuild.T.Seconds(),
		SharedConfigsPerSec:  float64(width) * float64(shared.N) / shared.T.Seconds(),
	}
	if row.RebuildConfigsPerSec > 0 {
		row.Speedup = row.SharedConfigsPerSec / row.RebuildConfigsPerSec
	}
	return row, nil
}

// cacheShareWorkload measures sweep throughput where each config does real
// evaluation work — a fixed seeded partition set scored per config — with
// the cost cache shared across the sweep (one GraphContext: config #1 pays
// cold costing, every sibling hits warm) vs private per config (a fresh
// context each, so every config re-derives the identical costs). The
// private side re-pays context construction too, but partition costing
// dominates it by orders of magnitude at these widths.
func cacheShareWorkload(model string, width, nparts int) (dseCacheShareRow, error) {
	g, err := models.Build(model)
	if err != nil {
		return dseCacheShareRow{}, err
	}
	rng := rand.New(rand.NewSource(29))
	parts := make([]*partition.Partition, nparts)
	for i := range parts {
		parts[i] = core.RandomPartition(g, rng, 0.3)
	}
	mem := defaultMem()
	platforms := dseSweepPlatforms(width)

	private := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range platforms {
				ev := eval.NewGraphContext(g, tiling.DefaultConfig()).MustNewEvaluator(p)
				for _, pt := range parts {
					ev.Partition(pt, mem)
				}
			}
		}
	})
	shared := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gc := eval.NewGraphContext(g, tiling.DefaultConfig())
			for _, p := range platforms {
				ev := gc.MustNewEvaluator(p)
				for _, pt := range parts {
					ev.Partition(pt, mem)
				}
			}
		}
	})
	row := dseCacheShareRow{
		Model:                model,
		Width:                width,
		PrivateConfigsPerSec: float64(width) * float64(private.N) / private.T.Seconds(),
		SharedConfigsPerSec:  float64(width) * float64(shared.N) / shared.T.Seconds(),
	}
	if row.PrivateConfigsPerSec > 0 {
		row.Speedup = row.SharedConfigsPerSec / row.PrivateConfigsPerSec
	}
	return row, nil
}

// orchWorkload mirrors BenchmarkSearchOrchestrator: K islands, each with
// the full per-island sample budget, over one shared fresh evaluator per
// iteration.
func orchWorkload(model string, samples, islands int) (orchRow, error) {
	g, err := models.Build(model)
	if err != nil {
		return orchRow{}, err
	}
	mem := defaultMem()
	migrations := 0
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
			_, stats, err := search.Run(ev, search.Options{
				Core: core.Options{
					Seed: 7, Population: 50, MaxSamples: samples,
					Objective: eval.Objective{Metric: eval.MetricEMA},
					Mem:       core.MemSearch{Fixed: mem},
				},
				Islands:      islands,
				MigrateEvery: 5,
			})
			if err != nil {
				b.Fatal(err)
			}
			migrations = stats.Migrations
		}
	})
	return orchRow{
		Model:         model,
		Islands:       islands,
		SamplesPerSec: float64(islands*samples) * float64(res.N) / res.T.Seconds(),
		NsPerOp:       float64(res.NsPerOp()),
		Migrations:    migrations,
	}, nil
}

func defaultMem() hw.MemConfig {
	return hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB}
}

// coldWorkload mirrors BenchmarkColdEval: nparts seeded random partitions
// scored by a fresh evaluator per iteration.
func coldWorkload(model string, nparts int) (coldRow, error) {
	g, err := models.Build(model)
	if err != nil {
		return coldRow{}, err
	}
	rng := rand.New(rand.NewSource(3))
	parts := make([]*partition.Partition, nparts)
	for i := range parts {
		parts[i] = core.RandomPartition(g, rng, 0.3)
	}
	mem := defaultMem()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
			for _, p := range parts {
				ev.Partition(p, mem)
			}
		}
	})
	row := coldRow{
		Model:       model,
		EvalsPerSec: float64(nparts) * float64(res.N) / res.T.Seconds(),
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: float64(res.AllocsPerOp()),
		BytesPerOp:  float64(res.AllocedBytesPerOp()),
	}
	if base, ok := coldBaseline[model]; ok {
		row.BaselineEvalsPerSec, row.BaselineAllocsPerOp = base[0], base[1]
		row.Speedup = row.EvalsPerSec / base[0]
		if row.AllocsPerOp > 0 {
			row.AllocReduction = base[1] / row.AllocsPerOp
		}
	}
	return row, nil
}

// deltaWorkload mirrors BenchmarkDeltaEval: a pool of single-mutation
// children of an evaluated base partition, re-scored through the full and
// delta engines against a warm cost cache.
func deltaWorkload() ([]deltaRow, error) {
	g, err := models.Build("resnet50")
	if err != nil {
		return nil, err
	}
	mem := defaultMem()
	ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	rng := rand.New(rand.NewSource(11))
	base := core.RandomPartition(g, rng, 0.3)
	ev.PartitionDelta(base, mem)
	pool := make([]*partition.Partition, 64)
	for i := range pool {
		pool[i] = core.ApplyRandomMutation(g, rng, base)
		ev.Partition(pool[i], mem)
	}
	var out []deltaRow
	for _, mode := range []string{"full", "delta"} {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := pool[i%len(pool)].Clone()
				if mode == "full" {
					ev.Partition(q, mem)
				} else {
					ev.PartitionDelta(q, mem)
				}
			}
		})
		out = append(out, deltaRow{
			Engine:      mode,
			EvalsPerSec: float64(res.N) / res.T.Seconds(),
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: float64(res.AllocsPerOp()),
		})
	}
	return out, nil
}

// gaWorkload mirrors BenchmarkGAParallel's delta engine: a seeded
// fixed-sample GA run per worker count, fresh evaluator per iteration.
func gaWorkload(samples int) ([]gaRow, error) {
	g, err := models.Build("resnet50")
	if err != nil {
		return nil, err
	}
	mem := defaultMem()
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	var out []gaRow
	for _, workers := range counts {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
				if _, _, err := core.Run(ev, core.Options{
					Seed: 7, Workers: workers, Population: 50, MaxSamples: samples,
					Objective: eval.Objective{Metric: eval.MetricEMA},
					Mem:       core.MemSearch{Fixed: mem},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		out = append(out, gaRow{
			Workers:     workers,
			EvalsPerSec: float64(samples) * float64(res.N) / res.T.Seconds(),
			NsPerOp:     float64(res.NsPerOp()),
		})
	}
	return out, nil
}

// mutationWorkload mirrors BenchmarkMutationOps: a fixed cycle of
// modify/split/merge/crossover draws against a pool of seeded partitions.
func mutationWorkload(model string) (mutationRow, error) {
	g, err := models.Build(model)
	if err != nil {
		return mutationRow{}, err
	}
	rng := rand.New(rand.NewSource(5))
	pool := make([]*partition.Partition, 8)
	for i := range pool {
		pool[i] = core.RandomPartition(g, rng, 0.3)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pool[i%len(pool)]
			switch i % 4 {
			case 0:
				core.ApplyMutationOp(g, rng, p, core.OpModifyNode)
			case 1:
				core.ApplyMutationOp(g, rng, p, core.OpSplitSubgraph)
			case 2:
				core.ApplyMutationOp(g, rng, p, core.OpMergeSubgraphs)
			default:
				core.CrossoverPartition(g, rng, p, pool[(i+3)%len(pool)])
			}
		}
	})
	row := mutationRow{
		Model:       model,
		OpsPerSec:   float64(res.N) / res.T.Seconds(),
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: float64(res.AllocsPerOp()),
		BytesPerOp:  float64(res.AllocedBytesPerOp()),
	}
	if base, ok := searchMutationBaseline[model]; ok {
		row.BaselineOpsPerSec, row.BaselineAllocsPerOp = base[0], base[1]
		row.Speedup = row.OpsPerSec / base[0]
		if row.AllocsPerOp > 0 {
			row.AllocReduction = base[1] / row.AllocsPerOp
		}
	}
	return row, nil
}

// searchGAWorkload runs one seeded end-to-end search per (model, memo
// setting): Workers=4 like the recorded baseline, delta engine, fresh
// evaluator per iteration.
func searchGAWorkload(model string, samples int, memo bool) (searchGARow, error) {
	g, err := models.Build(model)
	if err != nil {
		return searchGARow{}, err
	}
	mem := defaultMem()
	hits := 0
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
			_, stats, err := core.Run(ev, core.Options{
				Seed: 7, Workers: 4, Population: 50, MaxSamples: samples,
				Objective:         eval.Objective{Metric: eval.MetricEMA},
				Mem:               core.MemSearch{Fixed: mem},
				DisableGenomeMemo: !memo,
			})
			if err != nil {
				b.Fatal(err)
			}
			hits = stats.MemoHits
		}
	})
	row := searchGARow{
		Model:         model,
		Memo:          memo,
		SamplesPerSec: float64(samples) * float64(res.N) / res.T.Seconds(),
		NsPerOp:       float64(res.NsPerOp()),
		MemoHits:      hits,
	}
	if base, ok := searchGABaseline[model]; ok && samples == 1000 {
		row.BaselineSamplesPerSec = base
		row.Speedup = row.SamplesPerSec / base
	}
	return row, nil
}

func main() {
	out := flag.String("o", "BENCH_coldpath.json", "output path")
	searchOut := flag.String("so", "BENCH_searchpath.json", "search_path output path (empty to skip)")
	orchOut := flag.String("orch", "BENCH_searchorch.json", "search_orchestrator output path (empty to skip)")
	dseOut := flag.String("dse", "BENCH_dse.json", "dse shared-context workload output path (empty to skip)")
	cachewarmOut := flag.String("cachewarm", "BENCH_cachewarm.json", "cache warm-start workload output path (empty to skip)")
	distOut := flag.String("distsearch", "BENCH_distsearch.json", "distributed-search workload output path (empty to skip)")
	quick := flag.Bool("quick", false, "reduced budgets for CI smoke runs")
	distWorker := flag.String("dist-worker", "", "internal: serve as a distsearch bench worker, publishing the listen address to this file")
	distWorkerModel := flag.String("dist-worker-model", distSearchModel, "internal: model for -dist-worker")
	flag.Parse()

	if *distWorker != "" {
		runDistWorker(*distWorker, *distWorkerModel)
		return
	}

	nparts, gaSamples := 8, 1000
	if *quick {
		nparts, gaSamples = 2, 200
	}

	rep := report{
		Bench:    "coldpath",
		Go:       runtime.Version(),
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		NumCPU:   runtime.NumCPU(),
		Baseline: "pre-dense-indexing tree (PR-2, commit e055771)",
	}
	for _, model := range models.Names() {
		row, err := coldWorkload(model, nparts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %s: %v\n", model, err)
			os.Exit(1)
		}
		fmt.Printf("cold  %-12s %10.0f evals/s  %8.0f allocs/op  (%.1fx evals/s, %.1fx fewer allocs)\n",
			row.Model, row.EvalsPerSec, row.AllocsPerOp, row.Speedup, row.AllocReduction)
		rep.Cold = append(rep.Cold, row)
	}
	var err error
	if rep.Delta, err = deltaWorkload(); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: delta: %v\n", err)
		os.Exit(1)
	}
	for _, d := range rep.Delta {
		fmt.Printf("delta %-12s %10.0f evals/s  %8.0f allocs/op\n", d.Engine, d.EvalsPerSec, d.AllocsPerOp)
	}
	if rep.GA, err = gaWorkload(gaSamples); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: ga: %v\n", err)
		os.Exit(1)
	}
	for _, g := range rep.GA {
		fmt.Printf("ga    workers=%-5d %10.0f evals/s\n", g.Workers, g.EvalsPerSec)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: marshal: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: write: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if *dseOut != "" && !runDSEWorkload(*dseOut) {
		os.Exit(1)
	}

	if *cachewarmOut != "" && !runCachewarmWorkload(*cachewarmOut) {
		os.Exit(1)
	}

	if *distOut != "" && !runDistSearchWorkload(*distOut, gaSamples) {
		os.Exit(1)
	}

	if *searchOut == "" {
		return
	}
	srep := searchReport{
		Bench:    "searchpath",
		Go:       runtime.Version(),
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		NumCPU:   runtime.NumCPU(),
		Baseline: "pre-dense-operator tree (PR-3, commit 518d72f)",
	}
	for _, model := range models.Names() {
		row, err := mutationWorkload(model)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: mutation %s: %v\n", model, err)
			os.Exit(1)
		}
		fmt.Printf("mut   %-12s %10.0f ops/s    %8.0f allocs/op  (%.1fx ops/s, %.0fx fewer allocs)\n",
			row.Model, row.OpsPerSec, row.AllocsPerOp, row.Speedup, row.AllocReduction)
		srep.Mutation = append(srep.Mutation, row)
	}
	for _, model := range searchGAModels {
		for _, memo := range []bool{false, true} {
			row, err := searchGAWorkload(model, gaSamples, memo)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: ga search %s: %v\n", model, err)
				os.Exit(1)
			}
			fmt.Printf("gasp  %-12s memo=%-5v %10.0f samples/s  (%d memo hits)\n",
				row.Model, row.Memo, row.SamplesPerSec, row.MemoHits)
			srep.GA = append(srep.GA, row)
		}
	}
	sbuf, err := json.MarshalIndent(srep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: marshal search: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*searchOut, append(sbuf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: write search: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *searchOut)

	if *orchOut == "" {
		return
	}
	orep := orchReport{
		Bench:  "search_orchestrator",
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
		Note:   "aggregate samples/s, K islands x the same per-island budget over a shared evaluator; scaling is CPU-bound (island steps overlap across cores)",
	}
	for _, model := range searchGAModels {
		var base float64
		for _, islands := range []int{1, 2, 4} {
			row, err := orchWorkload(model, gaSamples, islands)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: orchestrator %s: %v\n", model, err)
				os.Exit(1)
			}
			if islands == 1 {
				base = row.SamplesPerSec
				fmt.Printf("orch  %-12s islands=%d %10.0f samples/s  (baseline, %d migrations)\n",
					row.Model, row.Islands, row.SamplesPerSec, row.Migrations)
			} else {
				if base > 0 {
					row.SpeedupVs1 = row.SamplesPerSec / base
				}
				fmt.Printf("orch  %-12s islands=%d %10.0f samples/s  (%.2fx vs 1 island, %d migrations)\n",
					row.Model, row.Islands, row.SamplesPerSec, row.SpeedupVs1, row.Migrations)
			}
			orep.Rows = append(orep.Rows, row)
		}
	}
	obuf, err := json.MarshalIndent(orep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: marshal orchestrator: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*orchOut, append(obuf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: write orchestrator: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *orchOut)
}

// runDSEWorkload runs the dse shared-context workload and writes dseOut,
// returning false when a contract assertion failed.
func runDSEWorkload(dseOut string) bool {
	drep := dseReport{
		Bench:  "dse",
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
		Note:   "evaluator construction standalone (eval.New) vs from a warm shared GraphContext; sweep configs/s with per-config rebuild vs one shared context per sweep; cacheshare sweep configs/s (each config evaluates a seeded partition set) with the geometry-keyed cost cache shared across the sweep vs private per config (fresh context each, which re-pays context construction too — partition costing dominates it)",
	}
	failed := false
	for _, model := range models.Names() {
		row, err := dseConstructWorkload(model)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: dse construct %s: %v\n", model, err)
			os.Exit(1)
		}
		fmt.Printf("dse   %-12s standalone %8.0f ns  shared %6.0f ns  (%.1fx)\n",
			row.Model, row.StandaloneNsPerOp, row.SharedNsPerOp, row.Speedup)
		if row.Speedup < 5 {
			fmt.Fprintf(os.Stderr, "benchreport: dse: %s shared-context construction only %.1fx faster than standalone (want >= 5x)\n",
				row.Model, row.Speedup)
			failed = true
		}
		drep.Construct = append(drep.Construct, row)
	}
	for _, model := range searchGAModels {
		for _, width := range []int{1, 8, 64} {
			row, err := dseSweepWorkload(model, width)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: dse sweep %s: %v\n", model, err)
				os.Exit(1)
			}
			fmt.Printf("dse   %-12s width=%-3d rebuild %8.0f cfg/s  shared %8.0f cfg/s  (%.1fx)\n",
				row.Model, row.Width, row.RebuildConfigsPerSec, row.SharedConfigsPerSec, row.Speedup)
			if width >= 8 && row.SharedConfigsPerSec <= row.RebuildConfigsPerSec {
				fmt.Fprintf(os.Stderr, "benchreport: dse: %s width %d shared sweep (%.0f cfg/s) does not beat rebuild (%.0f cfg/s)\n",
					row.Model, row.Width, row.SharedConfigsPerSec, row.RebuildConfigsPerSec)
				failed = true
			}
			drep.Sweep = append(drep.Sweep, row)
		}
	}
	for _, model := range models.Names() {
		for _, width := range []int{1, 8, 64} {
			row, err := cacheShareWorkload(model, width, 3)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchreport: dse cacheshare %s: %v\n", model, err)
				os.Exit(1)
			}
			fmt.Printf("dse   %-12s width=%-3d private %8.1f cfg/s  cacheshared %8.1f cfg/s  (%.1fx)\n",
				row.Model, row.Width, row.PrivateConfigsPerSec, row.SharedConfigsPerSec, row.Speedup)
			if width >= 8 && row.SharedConfigsPerSec <= row.PrivateConfigsPerSec {
				fmt.Fprintf(os.Stderr, "benchreport: dse: %s width %d shared-cache sweep (%.1f cfg/s) does not beat private caches (%.1f cfg/s)\n",
					row.Model, row.Width, row.SharedConfigsPerSec, row.PrivateConfigsPerSec)
				failed = true
			}
			drep.CacheShare = append(drep.CacheShare, row)
		}
	}
	dbuf, err := json.MarshalIndent(drep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: marshal dse: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(dseOut, append(dbuf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: write dse: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", dseOut)
	return !failed
}
