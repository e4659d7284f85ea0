// Command cocco runs a single Cocco search: graph partition for a fixed
// memory configuration, or full hardware-mapping co-exploration. With
// -islands > 1 the run becomes an island-model search — several GA
// populations exchanging genomes by ring migration — and -checkpoint /
// -resume make long runs interruptible.
//
// Examples:
//
//	cocco -model resnet50 -metric ema -samples 50000
//	cocco -model googlenet -metric energy -alpha 0.002 -search -kind shared
//	cocco -model nasnet -cores 4 -batch 8 -search -kind shared
//	cocco -model resnet152 -islands 4 -migrate-every 5 -checkpoint run.ckpt
//	cocco -model resnet152 -islands 4 -migrate-every 5 -checkpoint run.ckpt -resume run.ckpt
//	cocco -model resnet152 -cache-save run.cache
//	cocco -model resnet152 -cache-load run.cache -samples 100000   # warm start
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/report"
	"cocco/internal/search"
	"cocco/internal/search/dist"
	"cocco/internal/serialize"
	"cocco/internal/tiling"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cocco: ")

	var (
		model    = flag.String("model", "resnet50", "model name: "+strings.Join(models.Names(), ", "))
		metric   = flag.String("metric", "energy", "optimization metric: ema | energy")
		alpha    = flag.Float64("alpha", 0.002, "Formula 2 preference α (0 = partition-only Formula 1)")
		samples  = flag.Int("samples", 50_000, "genome-evaluation budget per island (total = islands x samples)")
		popSize  = flag.Int("population", 100, "GA population size")
		seed     = flag.Int64("seed", 42, "random seed")
		doSearch = flag.Bool("search", false, "co-explore the memory configuration (DSE)")
		kind     = flag.String("kind", "separate", "buffer design: separate | shared")
		glbKB    = flag.Int64("glb", 1024, "global buffer KB (fixed-HW runs; shared capacity for -kind shared)")
		wgtKB    = flag.Int64("wgt", 1152, "weight buffer KB (fixed-HW separate runs)")
		cores    = flag.Int("cores", 1, "number of accelerator cores")
		batch    = flag.Int("batch", 1, "batch size")
		workers  = flag.Int("workers", 0, "evaluation goroutines (0 = all CPUs); results are identical for any value")
		tcfgFlag = flag.String("tiling", tiling.DefaultConfig().String(), "base tile as HxW (e.g. 2x2)")
		show     = flag.Int("show", 8, "number of subgraphs to print from the best partition")
		dump     = flag.String("dump", "", "write the best partition as JSON to this path")

		islands    = flag.Int("islands", 1, "GA islands; 1 reproduces the plain search bit-for-bit")
		migEvery   = flag.Int("migrate-every", 5, "generations between ring migrations")
		migrants   = flag.Int("migrants", 2, "genomes each island sends per migration")
		scouts     = flag.String("scouts", "", "comma-separated scout islands to add to the ring: sa, greedy")
		checkpoint = flag.String("checkpoint", "", "write a resumable snapshot to this path at every migration barrier")
		resume     = flag.String("resume", "", "resume from this snapshot if it exists (same flags required)")
		maxRounds  = flag.Int("max-rounds", 0, "pause after this many migration rounds (0 = run to completion)")
		cacheLoad  = flag.String("cache-load", "", "warm-start from this cost-cache snapshot if it exists (same model/core-geometry/tiling required — memory capacities, core count, and batch may differ; results are identical, only faster)")
		cacheSave  = flag.String("cache-save", "", "write the cost cache to this path after the search, for future -cache-load runs")

		distWorkers   = flag.String("dist-workers", "", "comma-separated coccow addresses; run the island ring across these worker processes (bit-identical to the same flags in-process)")
		distIOTimeout = flag.Duration("dist-io-timeout", 3*time.Minute, "with -dist-workers: per-frame I/O deadline on worker connections; must exceed the slowest worker's MigrateEvery-round step (0 = no deadline)")
	)
	flag.Parse()

	g, err := models.Build(*model)
	if err != nil {
		log.Fatal(err)
	}
	tcfg, err := tiling.ParseConfig(*tcfgFlag)
	if err != nil {
		log.Fatal(err)
	}
	platform := hw.DefaultPlatform()
	platform.Cores = *cores
	platform.Batch = *batch
	ev, err := eval.New(g, platform, tcfg)
	if err != nil {
		log.Fatal(err)
	}
	if *cacheLoad != "" {
		snap, err := serialize.ReadCostCacheFile(*cacheLoad)
		switch {
		case errors.Is(err, os.ErrNotExist):
			fmt.Printf("no cache snapshot at %s; starting cold\n", *cacheLoad)
		case err != nil:
			log.Fatal(err)
		default:
			n, err := ev.LoadCache(snap)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("warm start: loaded %d cached subgraph costs from %s\n", n, *cacheLoad)
		}
	}

	obj := eval.Objective{Metric: eval.MetricEnergy, Alpha: *alpha}
	switch *metric {
	case "ema":
		obj.Metric = eval.MetricEMA
	case "energy":
	default:
		log.Fatalf("unknown metric %q", *metric)
	}

	bufKind := hw.SeparateBuffer
	if *kind == "shared" {
		bufKind = hw.SharedBuffer
	} else if *kind != "separate" {
		log.Fatalf("unknown buffer kind %q", *kind)
	}

	ms := core.MemSearch{Kind: bufKind}
	if *doSearch {
		ms.Search = true
		if bufKind == hw.SharedBuffer {
			ms.Global = hw.PaperSharedRange()
		} else {
			ms.Global = hw.PaperGlobalRange()
			ms.Weight = hw.PaperWeightRange()
		}
		if obj.Alpha == 0 {
			log.Fatal("-search requires -alpha > 0 (Formula 2)")
		}
	} else {
		ms.Fixed = hw.MemConfig{Kind: bufKind, GlobalBytes: *glbKB * hw.KiB}
		if bufKind == hw.SeparateBuffer {
			ms.Fixed.WeightBytes = *wgtKB * hw.KiB
		}
	}

	fmt.Printf("model %s: %d nodes, %d edges, %s weights, %.1f GMACs\n",
		g.Name, g.Len(), g.Edges(), report.Bytes(g.TotalWeightBytes()),
		float64(g.TotalMACs())/1e9)

	sopt := search.Options{
		Core: core.Options{
			Seed:       *seed,
			Workers:    *workers,
			Population: *popSize,
			MaxSamples: *samples,
			Objective:  obj,
			Mem:        ms,
		},
		Islands:      *islands,
		MigrateEvery: *migEvery,
		Migrants:     *migrants,
		Checkpoint:   *checkpoint,
		MaxRounds:    *maxRounds,
	}
	if *scouts != "" {
		for _, s := range strings.Split(*scouts, ",") {
			switch strings.TrimSpace(s) {
			case "sa":
				sopt.Scouts = append(sopt.Scouts, search.ScoutSA)
			case "greedy":
				sopt.Scouts = append(sopt.Scouts, search.ScoutGreedy)
			default:
				log.Fatalf("unknown scout kind %q (want sa or greedy)", s)
			}
		}
	}
	var (
		best  *core.Genome
		stats *search.Stats
	)
	if *distWorkers != "" {
		dopt := dist.Options{Search: sopt, IOTimeout: *distIOTimeout}
		for _, a := range strings.Split(*distWorkers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				dopt.Workers = append(dopt.Workers, a)
			}
		}
		best, stats, err = dist.RunOrResume(ev, dopt, *resume)
	} else {
		best, stats, err = search.RunOrResume(ev, sopt, *resume)
	}
	if err != nil {
		log.Fatal(err)
	}

	if stats.Paused {
		fmt.Printf("\npaused after %d rounds (budget remains; continue with -resume %s)\n",
			stats.Rounds, *checkpoint)
	}
	fmt.Printf("\nbest after %d samples (%d feasible, %d migrations over %d islands):\n",
		stats.Samples, stats.FeasibleSamples, stats.Migrations, len(stats.IslandStats))
	if len(stats.IslandStats) > 1 {
		fmt.Printf("  best found by island %d\n", stats.BestIsland)
		printIslands(os.Stdout, sopt, stats)
	}
	fmt.Printf("  memory    %v (total %s)\n", best.Mem, report.Bytes(best.Mem.TotalBytes()))
	fmt.Printf("  cost      %.6g\n", best.Cost)
	fmt.Printf("  EMA       %s\n", report.Bytes(best.Res.EMABytes))
	fmt.Printf("  energy    %s\n", report.MJ(best.Res.EnergyPJ))
	fmt.Printf("  latency   %s\n", report.MS(ev.LatencySeconds(best.Res.LatencyCycles)))
	fmt.Printf("  avg BW    %s\n", report.GBps(best.Res.AvgBWBytesPerSec))
	fmt.Printf("  subgraphs %d\n", best.P.NumSubgraphs())

	printPartition(os.Stdout, ev, best.P, *show)

	if *cacheSave != "" {
		snap, err := ev.ExportCache()
		if err != nil {
			log.Fatal(err)
		}
		if err := serialize.WriteCostCacheFile(*cacheSave, snap); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote cost-cache snapshot %s (%d subgraphs)\n", *cacheSave, len(snap.Entries))
	}

	if *dump != "" {
		data, err := serialize.EncodePartition(best.P)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*dump, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s (%d bytes)\n", *dump, len(data))
	}
}

// printIslands summarizes each ring member's contribution: samples spent,
// feasible genomes seen, memo hits, and migrants exchanged (the migrant
// columns stay blank when the ring never migrated).
func printIslands(w *os.File, sopt search.Options, stats *search.Stats) {
	fmt.Fprintf(w, "  island  kind    samples  feasible  memo-hits  sent  recv\n")
	for i, is := range stats.IslandStats {
		kind := "ga"
		if i >= sopt.Islands {
			kind = sopt.Scouts[i-sopt.Islands].String()
		}
		sent, recv := "-", "-"
		if stats.MigrantsSent != nil {
			sent = fmt.Sprintf("%d", stats.MigrantsSent[i])
			recv = fmt.Sprintf("%d", stats.MigrantsReceived[i])
		}
		fmt.Fprintf(w, "  %-6d  %-6s  %7d  %8d  %9d  %4s  %4s\n",
			i, kind, is.Samples, is.FeasibleSamples, is.MemoHits, sent, recv)
	}
}

func printPartition(w *os.File, ev *eval.Evaluator, p *partition.Partition, show int) {
	g := ev.Graph()
	fmt.Fprintln(w, "\nfirst subgraphs of the best partition:")
	for s, members := range p.Subgraphs() {
		if s >= show {
			fmt.Fprintf(w, "  ... (%d more)\n", p.NumSubgraphs()-show)
			break
		}
		c := ev.Subgraph(members)
		names := make([]string, 0, len(members))
		for _, id := range members {
			names = append(names, g.Node(id).Name)
		}
		const maxNames = 6
		label := strings.Join(names, ",")
		if len(names) > maxNames {
			label = strings.Join(names[:maxNames], ",") + fmt.Sprintf(",+%d", len(names)-maxNames)
		}
		fmt.Fprintf(w, "  #%-3d %2d layers  wgt=%-9s act=%-9s io=%-9s  [%s]\n",
			s, len(members), report.Bytes(c.WeightBytes), report.Bytes(c.ActFootprint),
			report.Bytes(c.InBytes+c.OutBytes), label)
	}
}
