package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/search"
	"cocco/internal/tiling"
)

// cocco-coexplore: a closed loop of one client running, one after another,
// the search `cocco -search -metric energy -alpha 0.002 -islands 2
// -scouts sa -population 100 -samples 4000 -workers 2` on the irregular
// models, each on a fresh evaluator with a cold cost cache.

const coexploreSamples = 4000

var coexploreObjective = eval.Objective{Metric: eval.MetricEnergy, Alpha: 0.002}

func coexploreOptions(seed int64, scale float64) search.Options {
	return search.Options{
		Core: core.Options{
			Seed: seed, Workers: 2, Population: popSize(scale), MaxSamples: budget(coexploreSamples, scale),
			Objective: coexploreObjective,
			Mem: core.MemSearch{
				Search: true, Kind: hw.SeparateBuffer,
				Global: hw.PaperGlobalRange(), Weight: hw.PaperWeightRange(),
			},
		},
		Islands: 2,
		Scouts:  []search.ScoutKind{search.ScoutSA},
	}
}

func runCoexplore(cfg config, rep *report) error {
	var graphs map[string]*graph.Graph
	setupS, err := timeSetup(func() (func(), error) {
		graphs = make(map[string]*graph.Graph)
		for _, m := range coexploreModels {
			g, err := models.Build(m)
			if err != nil {
				return nil, err
			}
			graphs[m] = g
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	newEv := func(model string) func() (*eval.Evaluator, error) {
		return func() (*eval.Evaluator, error) {
			return eval.New(graphs[model], hw.DefaultPlatform(), tiling.DefaultConfig())
		}
	}

	ops := coexploreOps(cfg.seed, 4096)
	bests := make([]*core.Genome, len(ops))
	stats := make([]*search.Stats, len(ops))
	w := window{setupS: setupS}
	// Whole blocks only, so every model is measured equally often.
	closedLoop(cfg, rep, &w, len(coexploreModels), func(i int) (int, error) {
		ev, err := newEv(ops[i].Model)()
		if err != nil {
			return 0, err
		}
		best, st, err := search.Run(ev, coexploreOptions(ops[i].Seed, cfg.scale))
		if err != nil {
			return 0, err
		}
		bests[i], stats[i] = best, st
		return st.Samples, nil
	})
	w.rssMiB = peakRSSMiB()
	addWindow(rep, w)
	for i, b := range bests {
		if b != nil {
			rep.check(rescoreGenome(ops[i].Model, b, coexploreObjective))
		}
	}
	if !cfg.trace {
		return nil
	}

	// Replay the first block on fresh evaluators; each replay must find
	// what the measured search found. Each search first runs again
	// untraced, in the now warm process, as the base of the trace overhead.
	r := newReplay()
	var untraced time.Duration
	for i, op := range ops[:len(coexploreModels)] {
		if bests[i] == nil {
			return fmt.Errorf("search %d failed, so it cannot be replayed", i)
		}
		opt := coexploreOptions(op.Seed, cfg.scale)
		ev, err := newEv(op.Model)()
		if err != nil {
			return err
		}
		runtime.GC() // leave the last replay's garbage out of this timing
		t := time.Now()
		_, _, err = search.Run(ev, opt)
		untraced += time.Since(t)
		if err != nil {
			return err
		}
		if err := traceSearch(r, rep, newEv(op.Model), opt, bests[i], stats[i], op.Seed, cfg.dir); err != nil {
			return err
		}
	}
	return finishTrace(cfg, rep, r, untraced, true)
}

// traceSearch replays one search on a fresh evaluator and checks it against
// the surface's own result (want, wantSt) for the same options. It then
// probes the search's layers: one checkpoint of its final state, its cold
// and warm evaluation paths and partition operators, and its island 0 run
// on its own through core.
func traceSearch(r *replay, rep *report, newEv func() (*eval.Evaluator, error), opt search.Options,
	want *core.Genome, wantSt *search.Stats, seed int64, dir string) error {
	ev, err := newEv()
	if err != nil {
		return err
	}
	runtime.GC()
	run, err := r.search("search.replay", ev, opt, 0, "")
	if err != nil {
		return err
	}
	rep.check(sameSearch(want, wantSt, run.best, &run.stats))
	rep.check(r.probeCheckpoint(ev, opt, run, filepath.Join(dir, "probe.ckpt")))
	pop, err := population(ev, run.host)
	if err != nil {
		return err
	}
	rep.check(r.probeLayers(ev, pop, seed))
	coreEv, err := newEv()
	if err != nil {
		return err
	}
	_, err = r.core(coreEv, islandZero(opt))
	return err
}

// islandZero is the GA configuration island 0 of a search runs with: the
// search's core options and its share of the scoring goroutines.
func islandZero(opt search.Options) core.Options {
	opt = opt.WithDefaults()
	ring := opt.Islands + len(opt.Scouts)
	c := opt.Core
	c.Workers = max(1, (c.Workers+ring-1)/ring)
	return c
}

// finishTrace prices the wire frames, checks (when asked) that the layer
// spans account for the replayed wall time, records the per-layer metrics
// and writes the spans.
func finishTrace(cfg config, rep *report, r *replay, untraced time.Duration, checkCoverage bool) error {
	rep.check(r.frames())
	if checkCoverage {
		var err error
		if c := r.coverage(); c < 0.95 || c > 1.05 {
			err = fmt.Errorf("layer spans cover %.1f%% of the replayed wall time, not 95-105%%", 100*c)
		}
		rep.check(err)
	}
	r.addMetrics(rep, untraced)
	return r.tr.write(cfg.spans)
}
