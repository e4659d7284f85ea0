// Command cocco runs a single Cocco search: graph partition for a fixed
// memory configuration, or full hardware-mapping co-exploration. With
// -islands > 1 the run becomes an island-model search — several GA
// populations exchanging genomes by ring migration — and -checkpoint /
// -resume make long runs interruptible.
//
// The search-shaping flags fill a coccod job spec, built as coccod builds a
// job's (serve.NormalizeSpec, BuildOptions, NewEvaluator): cocco refuses
// what admission refuses, with its message and caps.
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
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/report"
	"cocco/internal/search"
	"cocco/internal/search/dist"
	"cocco/internal/serialize"
	"cocco/internal/serve"
	"cocco/internal/tiling"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cocco: ")

	spec := specFlags(flag.CommandLine)
	var (
		workers = flag.Int("workers", 0, "evaluation goroutines (0 = all CPUs); results are identical for any value")
		show    = flag.Int("show", 8, "number of subgraphs to print from the best partition")
		dump    = flag.String("dump", "", "write the best partition as JSON to this path")

		checkpoint = flag.String("checkpoint", "", "write a resumable snapshot to this path at every migration barrier")
		resume     = flag.String("resume", "", "resume from this snapshot if it exists (same flags required)")
		maxRounds  = flag.Int("max-rounds", 0, "pause after this many migration rounds (0 = run to completion)")
		cacheLoad  = flag.String("cache-load", "", "warm-start from this cost-cache snapshot if it exists (same model/core-geometry/tiling required — memory capacities, core count, and batch may differ; results are identical, only faster); a file that does not load is an error")
		cacheSave  = flag.String("cache-save", "", "write the cost cache to this path after the search, for future -cache-load runs")

		distWorkers   = flag.String("dist-workers", "", "comma-separated coccow addresses; run the island ring across these worker processes (bit-identical to the same flags in-process)")
		distIOTimeout = flag.Duration("dist-io-timeout", 3*time.Minute, "with -dist-workers: per-frame I/O deadline on worker connections; must exceed the slowest worker's MigrateEvery-round step (0 = no deadline)")
	)
	flag.Parse()

	norm, err := serve.NormalizeSpec(*spec)
	if err != nil {
		log.Fatal(err)
	}
	sopt, err := serve.BuildOptions(norm)
	if err != nil {
		log.Fatal(err)
	}
	sopt.Core.Workers = *workers
	sopt.Checkpoint = *checkpoint
	sopt.MaxRounds = *maxRounds
	ev, err := serve.NewEvaluator(norm)
	if err != nil {
		log.Fatal(err)
	}
	if *cacheLoad != "" {
		n, err := serialize.LoadCostCacheFile(ev, *cacheLoad)
		switch {
		case errors.Is(err, os.ErrNotExist):
			fmt.Printf("no cache snapshot at %s; starting cold\n", *cacheLoad)
		case err != nil:
			log.Fatal(err)
		default:
			fmt.Printf("warm start: loaded %d cached subgraph costs from %s\n", n, *cacheLoad)
		}
	}

	g := ev.Graph()
	fmt.Printf("model %s: %d nodes, %d edges, %s weights, %.1f GMACs\n",
		g.Name, g.Len(), g.Edges(), report.Bytes(g.TotalWeightBytes()),
		float64(g.TotalMACs())/1e9)

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

// specFlags registers the search-shaping flags on fs and returns the job
// spec they fill.
func specFlags(fs *flag.FlagSet) *serialize.JobSpecJSON {
	s := new(serialize.JobSpecJSON)
	fs.StringVar(&s.Model, "model", "resnet50", "model name: "+strings.Join(models.Names(), ", "))
	fs.StringVar(&s.Metric, "metric", "energy", "optimization metric: ema | energy")
	fs.Float64Var(&s.Alpha, "alpha", 0.002, "Formula 2 preference α (0 = partition-only Formula 1)")
	fs.IntVar(&s.Samples, "samples", 50_000, "genome-evaluation budget per island (total = islands x samples)")
	fs.IntVar(&s.Population, "population", 100, "GA population size")
	fs.Int64Var(&s.Seed, "seed", 42, "random seed")
	fs.BoolVar(&s.MemSearch, "search", false, "co-explore the memory configuration (DSE)")
	fs.StringVar(&s.Kind, "kind", "separate", "buffer design: separate | shared")
	fs.Int64Var(&s.GLBKiB, "glb", 1024, "global buffer KB (fixed-HW runs; shared capacity for -kind shared)")
	fs.Int64Var(&s.WGTKiB, "wgt", 1152, "weight buffer KB (fixed-HW separate runs)")
	fs.IntVar(&s.Cores, "cores", 1, "number of accelerator cores")
	fs.IntVar(&s.Batch, "batch", 1, "batch size")
	fs.StringVar(&s.Tiling, "tiling", tiling.DefaultConfig().String(), "base tile as HxW (e.g. 2x2)")
	fs.IntVar(&s.Islands, "islands", 1, "GA islands; 1 reproduces the plain search bit-for-bit")
	fs.IntVar(&s.MigrateEvery, "migrate-every", 5, "generations between ring migrations")
	fs.IntVar(&s.Migrants, "migrants", 2, "genomes each island sends per migration")
	fs.Func("scouts", "comma-separated scout islands to add to the ring: sa, greedy", func(v string) error {
		s.Scouts = nil
		if v != "" {
			for _, k := range strings.Split(v, ",") {
				s.Scouts = append(s.Scouts, strings.TrimSpace(k))
			}
		}
		return nil
	})
	return s
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
