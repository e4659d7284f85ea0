package main

import (
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cocco/internal/core"
	"cocco/internal/dse"
	"cocco/internal/eval"
	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/search"
	"cocco/internal/tiling"
)

// dse-sweep: a closed loop of one client running whole sweeps,
// `cmd/dse -models resnet50,googlenet -kind separate -glb 256,512,1024,2048
// -wgt 576,1152 -cores 1,2 -workers 2 -metric energy` at a fixed sample
// budget per config, one sweep after another with fresh seeds.

// sweepSamples sizes a 32-config sweep to about 5 s on a 2-CPU box, so a
// 20 s window measures about four sweeps.
const sweepSamples = 10000

var sweepObjective = eval.Objective{Metric: eval.MetricEnergy}

func sweepGrid() dse.Grid {
	return dse.Grid{
		Models:      []string{"resnet50", "googlenet"},
		GlobalBytes: []int64{256 * hw.KiB, 512 * hw.KiB, 1024 * hw.KiB, 2048 * hw.KiB},
		WeightBytes: []int64{576 * hw.KiB, 1152 * hw.KiB},
		Cores:       []int{1, 2},
	}
}

// sweepSearch is the per-config search template; dse.Run adds the config's
// index to the seed and fixes its memory.
func sweepSearch(seed int64, scale float64) search.Options {
	return search.Options{
		Core: core.Options{
			Seed: seed, Workers: 1, Population: popSize(scale), MaxSamples: budget(sweepSamples, scale),
			Objective: sweepObjective,
		},
		Islands: 1,
	}
}

// sweep is one timed dse.Run.
type sweep struct {
	report     *dse.Report
	wall       time.Duration
	configs    []float64 // per-config wall time in seconds, in grid order
	samples    int
	infeasible int
}

// runSweepOnce runs one sweep and reconstructs each config's wall time from
// the completion timestamps: dse.Run hands configs out in grid order to
// whichever of its workers frees first, so config k >= workers starts when
// the (k-workers)-th completion lands.
func runSweepOnce(grid dse.Grid, seed int64, scale float64, workers int) (*sweep, error) {
	var mu sync.Mutex
	var doneAt []time.Time
	finished := make(map[int]time.Time)
	start := time.Now()
	rep, err := dse.Run(dse.Options{
		Grid:    grid,
		Search:  sweepSearch(seed, scale),
		Workers: workers,
		OnConfigDone: func(o dse.Outcome) error {
			now := time.Now()
			mu.Lock()
			doneAt = append(doneAt, now)
			finished[o.Config.Index] = now
			mu.Unlock()
			return nil
		},
	})
	s := &sweep{report: rep, wall: time.Since(start)}
	if err != nil {
		return s, err
	}
	for k := range rep.Outcomes {
		began := start
		if k >= workers {
			began = doneAt[k-workers]
		}
		s.configs = append(s.configs, finished[k].Sub(began).Seconds())
	}
	for _, o := range rep.Outcomes {
		s.samples += o.Samples
		if o.Status == dse.StatusInfeasible {
			s.infeasible++
		}
	}
	return s, nil
}

// checkSweep rescores every outcome of a sweep with the full engine.
func checkSweep(rep *report, s *sweep) {
	for _, o := range s.report.Outcomes {
		if !o.Feasible {
			continue // a recorded dead end, counted in dse.infeasible_configs
		}
		platform := hw.DefaultPlatform()
		platform.Cores, platform.Batch = o.Config.Cores, o.Config.Batch
		rep.check(rescore(o.Config.Model, platform, o.Assign, o.Config.Mem, sweepObjective, o.Cost))
	}
}

// sweepWorkers is how many configs a sweep searches at once.
const sweepWorkers = 2

func runSweep(cfg config, rep *report) error {
	grid := sweepGrid()
	var configs []dse.Config
	// What dse.Run does before its first config: expand and check the grid,
	// then build one graph context per model. dse.Run does not expose its
	// own, so the benchmark times the same public calls.
	setupS, err := timeSetup(func() (func(), error) {
		var err error
		if configs, err = grid.Configs(); err != nil {
			return nil, err
		}
		for _, m := range grid.Models {
			g, err := models.Build(m)
			if err != nil {
				return nil, err
			}
			eval.NewGraphContext(g, tiling.DefaultConfig())
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	sweepSeeds := seeds(cfg.seed, 4096)

	w := window{setupS: setupS}
	var sweeps []*sweep
	var infeasible int
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < cfg.seconds; i++ {
		runtime.GC() // as closedLoop does: each sweep starts on a clean heap
		rep.attempted += len(configs)
		s, err := runSweepOnce(grid, sweepSeeds[i], cfg.scale, sweepWorkers)
		if err != nil {
			return err
		}
		w.searchS, w.busy, w.samples = append(w.searchS, s.configs...), w.busy+s.wall, w.samples+s.samples
		infeasible += s.infeasible
		sweeps = append(sweeps, s)
	}
	w.rssMiB = peakRSSMiB()
	addWindow(rep, w)
	rep.add("configs_per_s", float64(len(w.searchS))/w.busy.Seconds())
	rep.add("dse.config_s_p50", median(w.searchS))
	rep.add("dse.infeasible_configs", float64(infeasible))
	for _, s := range sweeps {
		checkSweep(rep, s)
	}
	if cfg.trace {
		return traceSweep(cfg, rep, sweeps[0], sweepSeeds[0])
	}
	return nil
}

// traceSweep replays the first four configs of the first sweep — resnet50
// at 256 KiB of global buffer, both weight buffers, one and two cores,
// which the grid lists first — on a graph context of their own. Each replayed
// config must reproduce its outcome, once through the ring and once as a
// plain core run (a ring of one is bit-identical to core.Run). The same
// configs first run again untraced, one at a time through dse.Run, as the
// base of the trace overhead.
func traceSweep(cfg config, rep *report, s *sweep, seed int64) error {
	grid := sweepGrid()
	grid.Models, grid.GlobalBytes = grid.Models[:1], grid.GlobalBytes[:1]
	runtime.GC()
	base, err := runSweepOnce(grid, seed, cfg.scale, 1)
	if err != nil {
		return err
	}

	r := newReplay()
	gc := eval.NewGraphContext(models.MustBuild(grid.Models[0]), tiling.DefaultConfig())
	var last *eval.Evaluator
	var pop []*core.Genome
	for i, o := range s.report.Outcomes[:len(base.report.Outcomes)] {
		platform := hw.DefaultPlatform()
		platform.Cores, platform.Batch = o.Config.Cores, o.Config.Batch
		opt := sweepSearch(seed+int64(i), cfg.scale)
		opt.Core.Mem = core.MemSearch{Kind: o.Config.Mem.Kind, Fixed: o.Config.Mem}
		ev, err := gc.NewEvaluator(platform)
		if err != nil {
			return err
		}
		want, err := outcomeGenome(gc.Graph(), o)
		if err != nil {
			return err
		}
		run, err := r.search("search.replay", ev, opt, 0, "")
		if err != nil {
			return err
		}
		rep.check(sameGenome(want, run.best))
		rep.check(r.probeCheckpoint(ev, opt, run, filepath.Join(cfg.dir, "probe.ckpt")))
		p, err := population(ev, run.host)
		if err != nil {
			return err
		}
		pop, last = append(pop, p...), ev
		coreEv, err := gc.NewEvaluator(platform)
		if err != nil {
			return err
		}
		best, err := r.core(coreEv, islandZero(opt))
		if err != nil {
			return err
		}
		rep.check(sameGenome(want, best))
	}
	// The replayed configs share one cost cache, so its layers are probed once.
	rep.check(r.probeLayers(last, pop, seed))
	return finishTrace(cfg, rep, r, base.wall, false)
}

// outcomeGenome is a sweep outcome's best genome, nil when it has none.
func outcomeGenome(g *graph.Graph, o dse.Outcome) (*core.Genome, error) {
	if !o.Feasible {
		return nil, nil
	}
	p, err := partition.From(g, o.Assign)
	if err != nil {
		return nil, err
	}
	return &core.Genome{P: p, Mem: o.Config.Mem, Cost: o.Cost}, nil
}
