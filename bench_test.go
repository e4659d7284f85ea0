package cocco

// Benchmarks regenerating the paper's evaluation. Each table/figure has one
// benchmark that runs the corresponding harness (internal/experiments) with
// reduced budgets so `go test -bench=.` finishes in minutes; run
// `go run ./cmd/experiments -budget paper` for the full-budget versions.
// The tables are emitted with -v via b.Logf on the first iteration.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"cocco/internal/baselines"
	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/experiments"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/tiling"
)

func benchCfg() experiments.Config { return experiments.Quick() }

// logOnce prints the regenerated table on the benchmark's first iteration.
var logged sync.Map

func logOnce(b *testing.B, key, table string) {
	if _, dup := logged.LoadOrStore(key, true); !dup {
		b.Logf("\n%s", table)
	}
}

// BenchmarkFigure1CapacitySweep regenerates the EMA-vs-capacity trade-off
// the paper's Figure 1 frames and Figure 2's survey observes.
func BenchmarkFigure1CapacitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, s := experiments.Figure1Sweep(benchCfg(), "resnet50")
		logOnce(b, "fig1", s)
	}
}

// BenchmarkFigure2Survey regenerates the industrial NPU survey (Figure 2).
func BenchmarkFigure2Survey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logOnce(b, "fig2", experiments.Figure2())
	}
}

// BenchmarkFigure3FusionDepth regenerates the L=1/3/5 fusion study
// (Figure 3): EMA and average bandwidth per model and fusion depth.
func BenchmarkFigure3FusionDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, s := experiments.Figure3()
		logOnce(b, "fig3", s)
	}
}

// BenchmarkFigure11Partition regenerates the graph-partition comparison
// (Figure 11): greedy vs DP vs Cocco vs enumeration over the eight models.
func BenchmarkFigure11Partition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, s := experiments.Figure11(benchCfg())
		logOnce(b, "fig11", s)
	}
}

// BenchmarkTable1SeparateBuffer regenerates the separate-buffer
// co-exploration (Table 1).
func BenchmarkTable1SeparateBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, s := experiments.Table1(benchCfg())
		logOnce(b, "table1", s)
	}
}

// BenchmarkTable2SharedBuffer regenerates the shared-buffer co-exploration
// (Table 2).
func BenchmarkTable2SharedBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, s := experiments.Table2(benchCfg())
		logOnce(b, "table2", s)
	}
}

// BenchmarkFigure12Convergence regenerates the sample-efficiency study
// (Figure 12): convergence curves and the samples-to-1.05× table.
func BenchmarkFigure12Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Figure12(benchCfg())
		if len(res.Curves) == 0 {
			b.Fatal("no curves")
		}
	}
}

// BenchmarkFigure13Distribution regenerates the sample-distribution study
// (Figure 13).
func BenchmarkFigure13Distribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, s := experiments.Figure13(benchCfg())
		logOnce(b, "fig13", s)
	}
}

// BenchmarkFigure14AlphaSweep regenerates the α sensitivity study
// (Figure 14).
func BenchmarkFigure14AlphaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, s := experiments.Figure14(benchCfg())
		logOnce(b, "fig14", s)
	}
}

// BenchmarkTable3MultiCoreBatch regenerates the multi-core/batch study
// (Table 3).
func BenchmarkTable3MultiCoreBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, s := experiments.Table3(benchCfg())
		logOnce(b, "table3", s)
	}
}

// --- ablation benches (DESIGN.md design choices) --------------------------

// BenchmarkAblationTilingScheme compares production- vs consumption-centric
// resident-tile footprints.
func BenchmarkAblationTilingScheme(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, s := experiments.AblationTiling()
		logOnce(b, "abl-tiling", s)
	}
}

// BenchmarkAblationGA compares the full GA against no-crossover and
// no-in-situ-split variants.
func BenchmarkAblationGA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, s := experiments.AblationGA(benchCfg())
		logOnce(b, "abl-ga", s)
	}
}

// BenchmarkAblationCostCache reports subgraph-cost memoization hit rates.
func BenchmarkAblationCostCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, s := experiments.AblationCache(benchCfg())
		logOnce(b, "abl-cache", s)
	}
}

// BenchmarkAblationDeltaEval compares the incremental (delta) evaluation
// engine against the full-recompute path on the same co-exploration search.
func BenchmarkAblationDeltaEval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, s := experiments.AblationDeltaEval(benchCfg())
		for _, r := range rows {
			if !r.CostsEqual {
				b.Fatalf("%s: delta and full engines disagree", r.Model)
			}
		}
		logOnce(b, "abl-delta", s)
	}
}

// BenchmarkAblationPrefetch compares single- vs double-buffered weight
// feasibility (the §5.1.2 prefetch).
func BenchmarkAblationPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, s := experiments.AblationPrefetch(benchCfg())
		logOnce(b, "abl-prefetch", s)
	}
}

// BenchmarkAblationSeeding compares random vs greedy-seeded GA
// initialization (the paper's "flexible initialization" benefit).
func BenchmarkAblationSeeding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, s := experiments.AblationSeeding(benchCfg())
		logOnce(b, "abl-seed", s)
	}
}

// --- micro-benchmarks of the core primitives -------------------------------

// BenchmarkTilingDerive measures the three-stage scheme derivation on a
// GoogleNet inception module.
func BenchmarkTilingDerive(b *testing.B) {
	g := models.MustBuild("googlenet")
	// inc3a: nodes named inc3a_* form one module.
	var members []int
	for _, n := range g.Nodes() {
		if len(n.Name) > 5 && n.Name[:5] == "inc3a" {
			members = append(members, n.ID)
		}
	}
	cfg := tiling.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tiling.Derive(g, members, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionEvaluation measures a full partition evaluation with a
// cold-ish cache (random partitions).
func BenchmarkPartitionEvaluation(b *testing.B) {
	ev := eval.MustNew(models.MustBuild("resnet50"), hw.DefaultPlatform(), tiling.DefaultConfig())
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB}
	p := partition.Singletons(ev.Graph())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Partition(p, mem)
	}
}

// BenchmarkGAGeneration measures Cocco throughput in genome evaluations.
func BenchmarkGAGeneration(b *testing.B) {
	ev := eval.MustNew(models.MustBuild("resnet50"), hw.DefaultPlatform(), tiling.DefaultConfig())
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := core.Run(ev, core.Options{
			Seed: int64(i + 1), Population: 50, MaxSamples: 500,
			Objective: eval.Objective{Metric: eval.MetricEMA},
			Mem:       core.MemSearch{Fixed: mem},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGAParallel measures the deterministic parallel evaluation engine
// at increasing worker counts on a cold cost cache (a fresh evaluator per
// iteration, like a real search), for both evaluation engines (incremental
// PartitionDelta vs full-recompute Partition). Every sub-benchmark reports
// evals/s (genome evaluations per second) and allocs/op; parallel variants
// additionally report a "speedup" metric relative to the workers=1 run of
// the same engine. Every (engine, workers) combination is checked to reach
// the same best cost — the engines are bit-identical by contract.
func BenchmarkGAParallel(b *testing.B) {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	const samples = 1000
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB}
	g := models.MustBuild("resnet50")
	var refBest float64
	for _, mode := range []string{"delta", "full"} {
		var serialNs float64
		for _, workers := range counts {
			b.Run(fmt.Sprintf("eval=%s/workers=%d", mode, workers), func(b *testing.B) {
				b.ReportAllocs()
				var last float64
				for i := 0; i < b.N; i++ {
					ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
					best, _, err := core.Run(ev, core.Options{
						Seed: 7, Workers: workers, Population: 50, MaxSamples: samples,
						Objective:        eval.Objective{Metric: eval.MetricEMA},
						Mem:              core.MemSearch{Fixed: mem},
						DisableDeltaEval: mode == "full",
					})
					if err != nil {
						b.Fatal(err)
					}
					last = best.Cost
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(float64(samples)*float64(b.N)/b.Elapsed().Seconds(), "evals/s")
				if refBest == 0 {
					refBest = last
				} else if last != refBest {
					b.Fatalf("eval=%s workers=%d best cost %g != reference %g", mode, workers, last, refBest)
				}
				if workers == 1 {
					serialNs = ns
					return
				}
				if serialNs > 0 {
					b.ReportMetric(serialNs/ns, "speedup")
				}
			})
		}
	}
}

// BenchmarkDeltaEval measures the delta-evaluation layer on the GA's
// steady-state workload: every evaluated partition is one mutation away from
// an evaluated parent, so almost all subgraphs carry cost handles and only
// the operator-touched ones re-enter the cost cache. The full variant
// re-walks every subgraph through the memoized cache (copy, sort, key build,
// shard lock, map lookup per subgraph); both engines see the same partitions
// and a warm cost cache, so the gap is pure evaluation-path overhead. The
// delta variant reports a "speedup" metric vs the full variant of the same
// invocation; the acceptance floor is 2×.
func BenchmarkDeltaEval(b *testing.B) {
	g := models.MustBuild("resnet50")
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB}
	ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	rng := rand.New(rand.NewSource(11))

	// An evaluated base partition plus a pool of single-mutation children.
	// Deriving from the evaluated base carries handles for every untouched
	// subgraph, exactly like GA offspring.
	base := core.RandomPartition(g, rng, 0.3)
	ev.PartitionDelta(base, mem)
	pool := make([]*partition.Partition, 64)
	for i := range pool {
		pool[i] = core.ApplyRandomMutation(g, rng, base)
		ev.Partition(pool[i], mem) // warm the cost cache for the dirty halves
	}

	var fullNs float64
	for _, mode := range []string{"full", "delta"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := pool[i%len(pool)].Clone()
				if mode == "full" {
					ev.Partition(q, mem)
				} else {
					ev.PartitionDelta(q, mem)
				}
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "evals/s")
			if mode == "full" {
				fullNs = ns
			} else if fullNs > 0 {
				b.ReportMetric(fullNs/ns, "speedup")
			}
		})
	}
}

// BenchmarkColdEval measures the cold path of the cost cache: a fresh
// evaluator per iteration scores a fixed seeded set of random partitions, so
// (almost) every subgraph lookup is a miss and pays the full computeSubgraph
// + tiling derivation. This is the workload that dominates real searches now
// that the warm path (handles + delta re-scoring) is cheap. Reports evals/s
// (partition evaluations per second) and allocs/op; EXPERIMENTS.md records
// its history, and TestColdPathAllocs pins the per-subgraph allocations.
func BenchmarkColdEval(b *testing.B) {
	const nparts = 8
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB}
	for _, model := range models.Names() {
		b.Run(model, func(b *testing.B) {
			g := models.MustBuild(model)
			rng := rand.New(rand.NewSource(3))
			parts := make([]*partition.Partition, nparts)
			for i := range parts {
				parts[i] = core.RandomPartition(g, rng, 0.3)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
				for _, p := range parts {
					ev.Partition(p, mem)
				}
			}
			b.ReportMetric(float64(nparts)*float64(b.N)/b.Elapsed().Seconds(), "evals/s")
		})
	}
}

// BenchmarkMutationOps measures the GA's candidate-generation path over the
// model zoo: a fixed cycle of modify-node / split-subgraph / merge-subgraph /
// crossover draws against a pool of seeded random partitions, results
// discarded — pure operator cost (scratch workspace + in-place repair), no
// evaluation. EXPERIMENTS.md records its history against the pre-overhaul
// baseline, and TestOpsIntoAllocFree pins the operators' allocations.
func BenchmarkMutationOps(b *testing.B) {
	for _, model := range models.Names() {
		b.Run(model, func(b *testing.B) {
			g := models.MustBuild(model)
			rng := rand.New(rand.NewSource(5))
			pool := make([]*partition.Partition, 8)
			for i := range pool {
				pool[i] = core.RandomPartition(g, rng, 0.3)
			}
			b.ReportAllocs()
			b.ResetTimer()
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
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkEnumeration measures the exact downset DP on ResNet50.
func BenchmarkEnumeration(b *testing.B) {
	ev := eval.MustNew(models.MustBuild("resnet50"), hw.DefaultPlatform(), tiling.DefaultConfig())
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := baselines.Enumerate(ev, mem, eval.MetricEMA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelBuild measures graph construction for the largest model.
func BenchmarkModelBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if g := models.MustBuild("nasnet"); g.Len() == 0 {
			b.Fatal("empty graph")
		}
	}
}
