// Command dse runs a batched multi-config design-space exploration: a grid
// of hardware configurations (buffer kinds and capacities, core counts,
// batch sizes) × models, each point searched by the island-model
// orchestrator, consolidated into a per-model Pareto front of buffer
// capacity vs cost. Every model shares one evaluation GraphContext across
// its grid points, so the graph-derived cold path is paid once per model.
//
// Capacity axes accept either a comma list of KB values ("256,512,1024")
// or an inclusive KB range "min:max:step" ("128:2048:64", the paper's
// global-buffer range).
//
// With -checkpoint-dir the sweep is resumable: rerunning the same command
// skips completed configs and resumes interrupted ones, producing the same
// Pareto front an uninterrupted run would. -max-rounds time-boxes each
// config's search; paused configs continue on the next invocation.
//
// Examples:
//
//	dse -models googlenet,resnet50 -glb 256,512,1024 -wgt 288,576
//	dse -models all -kind both -glb 128:2048:256 -wgt 144:2304:288 -metric ema
//	dse -models nasnet -glb 512:3072:512 -kind shared -cores 1,2,4 -batch 1,8
//	dse -models gpt -glb 256:2048:128 -wgt 288,1152 -checkpoint-dir sweep/ -max-rounds 50
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"cocco/internal/core"
	"cocco/internal/dse"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/search"
	"cocco/internal/tiling"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(errorLine(err))
	}
}

// errorLine is the line dse prints for a failure: the error behind exactly
// one "dse: ", which package dse's own errors already start with.
func errorLine(err error) string {
	return "dse: " + strings.TrimPrefix(err.Error(), "dse: ")
}

// run parses args, runs the sweep they describe and prints its progress and
// Pareto fronts to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dse", flag.ExitOnError)
	var (
		modelsFlag = fs.String("models", "googlenet", "comma-separated model names, or 'all': "+strings.Join(models.Names(), ", "))
		kind       = fs.String("kind", "separate", "buffer design axis: separate | shared | both")
		glb        = fs.String("glb", "256,512,1024,2048", "global/shared-buffer KB axis: comma list or min:max:step")
		wgt        = fs.String("wgt", "288,576,1152,2304", "weight-buffer KB axis (separate kind): comma list or min:max:step")
		coresFlag  = fs.String("cores", "1", "comma-separated core counts")
		batchFlag  = fs.String("batch", "1", "comma-separated batch sizes")
		tcfgFlag   = fs.String("tiling", tiling.DefaultConfig().String(), "base tile as HxW (e.g. 2x2)")

		metric  = fs.String("metric", "energy", "optimization metric: ema | energy")
		alpha   = fs.Float64("alpha", 0, "Formula 2 preference α (0 = partition-only Formula 1)")
		samples = fs.Int("samples", 10_000, "genome-evaluation budget per island per config")
		popSize = fs.Int("population", 100, "GA population size")
		seed    = fs.Int64("seed", 42, "base seed; config i uses seed+i")
		workers = fs.Int("workers", 1, "configs searched concurrently (never changes results)")

		islands   = fs.Int("islands", 1, "GA islands per config")
		migEvery  = fs.Int("migrate-every", 5, "generations between ring migrations")
		migrants  = fs.Int("migrants", 2, "genomes each island sends per migration")
		ckptDir   = fs.String("checkpoint-dir", "", "directory for per-config checkpoints and outcomes plus per-geometry cost-cache snapshots (enables resume + warm starts)")
		maxRounds = fs.Int("max-rounds", 0, "pause each config after this many rounds (0 = run to completion; needs -checkpoint-dir)")
		noCache   = fs.Bool("no-cache-snapshots", false, "skip the per-geometry cost-cache warm-start files (results are identical either way)")

		csvPath = fs.String("csv", "", "also write the full sweep table as CSV to this path")
		full    = fs.Bool("full", false, "print the full sweep table, not just the Pareto fronts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	grid, err := buildGrid(*modelsFlag, *kind, *glb, *wgt, *coresFlag, *batchFlag, *tcfgFlag)
	if err != nil {
		return err
	}
	configs, err := grid.Configs()
	if err != nil {
		return err
	}

	m, err := eval.ParseMetric(*metric)
	if err != nil {
		return err
	}
	obj := eval.Objective{Metric: m, Alpha: *alpha}

	opt := dse.Options{
		Grid: grid,
		Search: search.Options{
			Core: core.Options{
				Seed:       *seed,
				Population: *popSize,
				MaxSamples: *samples,
				Objective:  obj,
			},
			Islands:      *islands,
			MigrateEvery: *migEvery,
			Migrants:     *migrants,
			MaxRounds:    *maxRounds,
		},
		Workers:               *workers,
		CheckpointDir:         *ckptDir,
		DisableCacheSnapshots: *noCache,
		OnConfigDone: func(o dse.Outcome) error {
			cost := "-"
			if o.Feasible {
				cost = fmt.Sprintf("%.6g", o.Cost)
			}
			fmt.Fprintf(stdout, "[%3d/%d] %-10s %-28s cost=%-12s (%d samples)\n",
				o.Config.Index+1, len(configs), o.Status, o.Config.String(), cost, o.Samples)
			return nil
		},
	}

	fmt.Fprintf(stdout, "sweeping %d configs over %d models (%d workers)\n",
		len(configs), len(grid.Models), *workers)
	rep, err := dse.Run(opt)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout)
	if *full {
		fmt.Fprintln(stdout, rep.Table())
	}
	fmt.Fprintln(stdout, rep.FrontTable())
	if rep.Paused() {
		fmt.Fprintf(stdout, "sweep paused (some configs hit -max-rounds); rerun the same command to continue\n")
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(rep.Table().CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *csvPath)
	}
	return nil
}

// buildGrid assembles the sweep grid from the flag values.
func buildGrid(modelsFlag, kind, glb, wgt, cores, batch, tcfg string) (dse.Grid, error) {
	var g dse.Grid
	if modelsFlag == "all" {
		g.Models = models.Names()
	} else {
		for _, m := range strings.Split(modelsFlag, ",") {
			g.Models = append(g.Models, strings.TrimSpace(m))
		}
	}
	if kind == "both" {
		g.Kinds = []hw.BufferKind{hw.SeparateBuffer, hw.SharedBuffer}
	} else {
		k, err := hw.ParseBufferKind(kind)
		if err != nil {
			return g, fmt.Errorf("unknown buffer kind axis %q (want separate, shared, or both)", kind)
		}
		g.Kinds = []hw.BufferKind{k}
	}
	var err error
	if g.GlobalBytes, err = parseKBAxis(glb); err != nil {
		return g, fmt.Errorf("-glb: %w", err)
	}
	if g.WeightBytes, err = parseKBAxis(wgt); err != nil {
		return g, fmt.Errorf("-wgt: %w", err)
	}
	if g.Cores, err = parseIntList(cores); err != nil {
		return g, fmt.Errorf("-cores: %w", err)
	}
	if g.Batch, err = parseIntList(batch); err != nil {
		return g, fmt.Errorf("-batch: %w", err)
	}
	if g.Tiling, err = tiling.ParseConfig(tcfg); err != nil {
		return g, err
	}
	return g, nil
}

// parseKBAxis parses a capacity axis in KB: "a,b,c" or inclusive
// "min:max:step". Each value is at most hw.MaxBufferKiB and a range at most
// hw.MaxRangeCandidates long, both checked before anything is expanded.
func parseKBAxis(s string) ([]int64, error) {
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("range must be min:max:step, got %q", s)
		}
		var r [3]int64
		for i, p := range parts {
			v, err := parseKB(p)
			if err != nil {
				return nil, err
			}
			r[i] = v
		}
		rng := hw.MemRange{Min: r[0], Max: r[1], Step: r[2]}
		if err := rng.Validate(); err != nil {
			return nil, fmt.Errorf("range %q: %w", s, err)
		}
		return rng.Candidates(), nil
	}
	var out []int64
	for _, p := range strings.Split(s, ",") {
		v, err := parseKB(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseKB parses one KB value in [1, hw.MaxBufferKiB] as bytes.
func parseKB(s string) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad KB value %q", s)
	}
	if v < 1 || v > hw.MaxBufferKiB {
		return 0, fmt.Errorf("KB value must be in [1, %d], got %d", hw.MaxBufferKiB, v)
	}
	return v * hw.KiB, nil
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
