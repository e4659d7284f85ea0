// Package dse is the batched multi-config design-space-exploration driver:
// it expands a declarative Grid of hardware configurations into per-config
// searches, fans them over a worker pool, and consolidates the results into
// a per-model Pareto front (buffer capacity vs cost).
//
// The driver is built directly on the GraphContext/Evaluator split: every
// model in the grid gets ONE shared eval.GraphContext, and each grid point
// derives its thin per-platform Evaluator from it, so the graph-derived
// cold path (per-node tables, compute-cycle tables per core geometry) is
// paid once per model instead of once per config. Each config then runs
// the island-model search orchestrator (internal/search) with its memory
// configuration fixed.
//
// Sweeps are resumable. With a CheckpointDir set, every completed config
// persists a SweepOutcome file (<ID>.done.json) and every in-flight search
// writes its orchestrator checkpoint to <ID>.ckpt. A restarted sweep skips
// configs with outcome files and resumes in-flight ones from their
// checkpoints; because the per-config searches and the search orchestrator
// are both deterministic, an interrupted-and-resumed sweep produces a
// Pareto front bit-identical to an uninterrupted run (pinned by
// TestSweepResumeParetoIdentical).
//
// Checkpointed sweeps are also warm-startable: the configs of one model
// share the sweep platform's core geometry, so under the shared
// GraphContext cost cache they all read and write the same entries, and
// the model persists ONE cost-cache snapshot,
// <model>_t<tiling>_<geometry>.cache, written after each config completes
// or pauses and loaded once, before the worker pool starts. Keep-first load
// semantics make warm starts bit-identical to cold runs. A missing snapshot
// is a cold start; one that does not load fails the sweep before any config
// runs (serialize.LoadCostCacheFile's rule). No other .cache file in the
// directory is ever opened.
package dse

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/report"
	"cocco/internal/search"
	"cocco/internal/serialize"
)

// Status classifies how a grid point finished this sweep invocation.
type Status int

const (
	// StatusDone: the search completed and found a feasible genome.
	StatusDone Status = iota
	// StatusInfeasible: the search exhausted its budget without any feasible
	// genome; the point is a recorded dead end, not an error.
	StatusInfeasible
	// StatusSkipped: a prior sweep already completed this point; its outcome
	// was restored from the persisted outcome file without searching.
	StatusSkipped
	// StatusPaused: the search hit Search.MaxRounds with budget remaining and
	// checkpointed; re-running the sweep resumes it.
	StatusPaused
)

func (s Status) String() string {
	switch s {
	case StatusDone:
		return "done"
	case StatusInfeasible:
		return "infeasible"
	case StatusSkipped:
		return "skipped"
	case StatusPaused:
		return "paused"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Outcome is the result of one grid point.
type Outcome struct {
	Config Config
	Status Status
	// Feasible reports whether a feasible genome is known for this point
	// (true for StatusDone and feasible restored outcomes; possibly true for
	// StatusPaused when the partial search already found one).
	Feasible bool
	// Cost is the best feasible objective cost (meaningless when !Feasible).
	Cost float64
	// Assign is the best genome's subgraph assignment per node.
	Assign []int
	// Res is the best genome's full evaluation result.
	Res *eval.Result
	// Samples is the number of genome evaluations spent (0 when skipped).
	Samples int
	// Resumed reports the search continued from an orchestrator checkpoint.
	Resumed bool
}

// Options configures a sweep.
type Options struct {
	// Grid declares the configurations to explore.
	Grid Grid
	// Search is the per-config search template. Core.Seed seeds config 0;
	// config i runs with Seed+i so points explore independently but
	// reproducibly. Core.Mem and Checkpoint are overwritten per config.
	// Run refuses the whole sweep if any config's options fail
	// search.Options.Validate.
	Search search.Options
	// Workers is the number of configs searched concurrently (default 1).
	// Worker count never changes any config's result — each config's search
	// is self-contained — only the completion order of OnConfigDone.
	Workers int
	// CheckpointDir, when non-empty, makes the sweep resumable: per-config
	// search checkpoints, completed-outcome files, and cost-cache snapshots
	// live there. Required when Search.MaxRounds is set.
	CheckpointDir string
	// DisableCacheSnapshots turns off the per-model cost-cache warm-start
	// files (<model>_t<tiling>_<geometry>.cache) a checkpointed sweep
	// otherwise loads before searching and writes on each completion or
	// pause. Loads are keep-first and never change results — the snapshot
	// only changes how fast the first evaluations go — so the flag exists
	// for ablation and disk frugality, not correctness.
	DisableCacheSnapshots bool
	// OnConfigDone, when non-nil, observes every outcome as it lands
	// (serialized under a lock). Returning an error aborts the sweep after
	// in-flight configs finish; already-completed outcomes keep their
	// persisted files, so a later Run resumes cleanly.
	OnConfigDone func(Outcome) error
}

// Report is the consolidated sweep result.
type Report struct {
	Outcomes []Outcome
}

// Run executes the sweep and returns the outcomes in grid order. The
// returned error is nil even when individual points are infeasible or
// paused — those are recorded outcomes; only environmental failures
// (invalid grid or search options, a cost-cache snapshot that does not
// load, checkpoint I/O, corrupted resume files, OnConfigDone aborts) are
// errors. On error the partial Report holds every outcome that completed
// before the abort.
func Run(opt Options) (*Report, error) {
	configs, err := opt.Grid.Configs()
	if err != nil {
		return nil, err
	}
	// Every config's search is admitted before any runs or the checkpoint
	// dir is touched, so a bad template fails the sweep, not its configs.
	for _, cfg := range configs {
		if err := configSearch(opt.Search, cfg).Validate(); err != nil {
			return nil, fmt.Errorf("dse: config %s: %w", cfg.ID(), err)
		}
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	if opt.CheckpointDir != "" {
		if err := os.MkdirAll(opt.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("dse: checkpoint dir: %w", err)
		}
	}
	// One shared GraphContext per model: this is the whole point of the
	// context/evaluator split. Configs() already validated the model names.
	// The model's snapshot warm-starts the context's cost cache for the
	// sweep platform's core geometry, which every config of the model
	// shares, so it is loaded once, here.
	ctxs := make(map[string]*eval.GraphContext, len(opt.Grid.Models))
	for _, cfg := range configs {
		if _, ok := ctxs[cfg.Model]; ok {
			continue
		}
		gc := eval.NewGraphContext(models.MustBuild(cfg.Model), cfg.Tiling)
		ctxs[cfg.Model] = gc
		if opt.CheckpointDir != "" && !opt.DisableCacheSnapshots {
			platform := hw.DefaultPlatform()
			ev, err := gc.NewEvaluator(platform)
			if err != nil {
				return nil, fmt.Errorf("dse: %w", err)
			}
			path := groupCachePath(opt.CheckpointDir, cfg, platform.Core)
			if _, err := serialize.LoadCostCacheFile(ev, path); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("dse: %w", err)
			}
		}
	}

	outcomes := make([]*Outcome, len(configs))
	errs := make([]error, len(configs))
	var aborted atomic.Bool
	var doneMu sync.Mutex // serializes OnConfigDone

	work := make(chan Config)
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cfg := range work {
				if aborted.Load() {
					continue
				}
				out, err := runConfig(opt, ctxs[cfg.Model], cfg)
				if err != nil {
					errs[cfg.Index] = err
					aborted.Store(true)
					continue
				}
				outcomes[cfg.Index] = out
				if opt.OnConfigDone != nil {
					doneMu.Lock()
					cbErr := opt.OnConfigDone(*out)
					doneMu.Unlock()
					if cbErr != nil {
						errs[cfg.Index] = fmt.Errorf("dse: aborted by callback: %w", cbErr)
						aborted.Store(true)
					}
				}
			}
		}()
	}
	for _, cfg := range configs {
		work <- cfg
	}
	close(work)
	wg.Wait()

	rep := &Report{}
	for _, o := range outcomes {
		if o != nil {
			rep.Outcomes = append(rep.Outcomes, *o)
		}
	}
	for _, err := range errs {
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// groupCachePath names the warm-start snapshot shared by every config of
// one (model, tiling, core geometry) group. All grid points of a model
// share the sweep platform's core geometry — the grid varies capacities,
// kind, cores, and batch only — so this is one file per model.
func groupCachePath(dir string, cfg Config, core hw.Core) string {
	return filepath.Join(dir, fmt.Sprintf("%s_t%s_%s.cache", cfg.Model, cfg.Tiling, core.GeometryID()))
}

// runConfig searches one grid point, honoring persisted outcomes and
// checkpoints when the sweep has a checkpoint directory.
func runConfig(opt Options, gc *eval.GraphContext, cfg Config) (*Outcome, error) {
	platform := hw.DefaultPlatform()
	platform.Cores = cfg.Cores
	platform.Batch = cfg.Batch
	var donePath, ckptPath, cachePath string
	if opt.CheckpointDir != "" {
		donePath = filepath.Join(opt.CheckpointDir, cfg.ID()+".done.json")
		ckptPath = filepath.Join(opt.CheckpointDir, cfg.ID()+".ckpt")
		if !opt.DisableCacheSnapshots {
			cachePath = groupCachePath(opt.CheckpointDir, cfg, platform.Core)
		}
		if out, err := loadOutcome(gc, cfg, donePath); err != nil {
			return nil, err
		} else if out != nil {
			return out, nil
		}
	}

	ev, err := gc.NewEvaluator(platform)
	if err != nil {
		return nil, fmt.Errorf("dse: config %s: %w", cfg.ID(), err)
	}
	sopt := configSearch(opt.Search, cfg)
	sopt.Checkpoint = ckptPath
	resumed := false
	if ckptPath != "" {
		if _, err := os.Stat(ckptPath); err == nil {
			resumed = true
		}
	}

	best, stats, serr := search.RunOrResume(ev, sopt, ckptPath)
	if stats == nil {
		return nil, fmt.Errorf("dse: config %s: %w", cfg.ID(), serr)
	}
	// Persist the warm half regardless of how the search ended: the export
	// walks the SHARED cache, so each completing config refreshes the
	// model's single snapshot with everything any sibling has computed so
	// far. Writes are atomic and the cache only grows, so concurrent
	// completions are safe — last writer wins with a superset semantics
	// good enough for a warm start (loads are keep-first anyway).
	if cachePath != "" {
		snap, err := ev.ExportCache()
		if err != nil {
			return nil, fmt.Errorf("dse: config %s: %w", cfg.ID(), err)
		}
		if err := serialize.WriteCostCacheFile(cachePath, snap); err != nil {
			return nil, fmt.Errorf("dse: config %s: %w", cfg.ID(), err)
		}
	}
	out := &Outcome{Config: cfg, Samples: stats.Samples, Resumed: resumed}
	if best != nil {
		out.Feasible = true
		out.Cost = best.Cost
		out.Assign = best.P.Assignment()
		out.Res = best.Res
	}
	if stats.Paused {
		// Budget remains; the checkpoint stands and the next Run resumes it.
		out.Status = StatusPaused
		return out, nil
	}
	if !out.Feasible {
		out.Status = StatusInfeasible
	} else {
		out.Status = StatusDone
	}
	if donePath != "" {
		if err := saveOutcome(gc, cfg, out, donePath); err != nil {
			return nil, err
		}
		os.Remove(ckptPath) // the outcome file supersedes the search checkpoint
	}
	return out, nil
}

// configSearch is cfg's search: the template at seed Core.Seed+cfg.Index,
// with cfg's memory fixed.
func configSearch(tmpl search.Options, cfg Config) search.Options {
	tmpl.Core.Seed += int64(cfg.Index)
	tmpl.Core.Mem = core.MemSearch{Kind: cfg.Mem.Kind, Fixed: cfg.Mem}
	return tmpl
}

// loadOutcome restores a persisted outcome, returning (nil, nil) when the
// file does not exist.
func loadOutcome(gc *eval.GraphContext, cfg Config, path string) (*Outcome, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dse: read outcome: %w", err)
	}
	j, err := serialize.DecodeSweepOutcome(data)
	if err != nil {
		return nil, fmt.Errorf("dse: %s: %w", path, err)
	}
	if j.ConfigID != cfg.ID() {
		return nil, fmt.Errorf("dse: outcome file %s is for config %q, want %q", path, j.ConfigID, cfg.ID())
	}
	out := &Outcome{
		Config:   cfg,
		Status:   StatusSkipped,
		Feasible: j.Feasible,
		Cost:     j.Cost,
		Assign:   j.Assign,
		Res:      serialize.DecodeResult(j.Res),
		Samples:  j.Samples,
	}
	return out, nil
}

// saveOutcome persists a completed outcome atomically (tmp + rename), the
// same durability discipline the search checkpoints use.
func saveOutcome(gc *eval.GraphContext, cfg Config, out *Outcome, path string) error {
	j := &serialize.SweepOutcomeJSON{
		ConfigID: cfg.ID(),
		Graph:    gc.Graph().Name,
		Mem:      serialize.EncodeMemConfig(cfg.Mem),
		Cores:    cfg.Cores,
		Batch:    cfg.Batch,
		Tiling:   cfg.Tiling.String(),
		Feasible: out.Feasible,
		Cost:     out.Cost,
		Samples:  out.Samples,
		Assign:   out.Assign,
		Res:      serialize.EncodeResult(out.Res),
	}
	data, err := serialize.EncodeSweepOutcome(j)
	if err != nil {
		return err
	}
	if err := serialize.AtomicWriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("dse: write outcome: %w", err)
	}
	return nil
}

// Paused reports whether any outcome is paused (the sweep is incomplete and
// should be re-run to continue).
func (r *Report) Paused() bool {
	for _, o := range r.Outcomes {
		if o.Status == StatusPaused {
			return true
		}
	}
	return false
}

// ParetoFront returns the model's non-dominated completed outcomes on
// (total buffer bytes, cost), sorted by capacity: no other feasible point
// has both no-more silicon and no-worse cost (with one strictly better).
// Paused points are excluded — their costs are not final.
func (r *Report) ParetoFront(model string) []Outcome {
	var pts []Outcome
	for _, o := range r.Outcomes {
		if o.Config.Model != model || !o.Feasible || o.Status == StatusPaused {
			continue
		}
		pts = append(pts, o)
	}
	sort.Slice(pts, func(i, j int) bool {
		bi, bj := pts[i].Config.Mem.TotalBytes(), pts[j].Config.Mem.TotalBytes()
		if bi != bj {
			return bi < bj
		}
		if pts[i].Cost != pts[j].Cost {
			return pts[i].Cost < pts[j].Cost
		}
		return pts[i].Config.Index < pts[j].Config.Index
	})
	var front []Outcome
	for _, p := range pts {
		if len(front) > 0 && p.Cost >= front[len(front)-1].Cost {
			continue // dominated by a smaller-or-equal configuration
		}
		front = append(front, p)
	}
	return front
}

// Models returns the distinct models with outcomes, in grid order.
func (r *Report) Models() []string {
	var out []string
	seen := map[string]bool{}
	for _, o := range r.Outcomes {
		if !seen[o.Config.Model] {
			seen[o.Config.Model] = true
			out = append(out, o.Config.Model)
		}
	}
	return out
}

// Table renders the full sweep as a report table, marking Pareto-front
// points per model.
func (r *Report) Table() *report.Table {
	onFront := map[int]bool{}
	for _, m := range r.Models() {
		for _, o := range r.ParetoFront(m) {
			onFront[o.Config.Index] = true
		}
	}
	t := report.NewTable("DSE sweep",
		"model", "mem", "cores", "batch", "status", "cost", "EMA", "energy", "samples", "pareto")
	for _, o := range r.Outcomes {
		cost, ema, energy := "-", "-", "-"
		if o.Feasible {
			cost = fmt.Sprintf("%.4g", o.Cost)
			if o.Res != nil {
				ema = report.Bytes(o.Res.EMABytes)
				energy = report.MJ(o.Res.EnergyPJ)
			}
		}
		mark := ""
		if onFront[o.Config.Index] {
			mark = "*"
		}
		t.AddRow(o.Config.Model, o.Config.Mem.String(), o.Config.Cores, o.Config.Batch,
			o.Status.String(), cost, ema, energy, o.Samples, mark)
	}
	return t
}

// FrontTable renders just the per-model Pareto fronts (capacity vs cost),
// the sweep's headline artifact.
func (r *Report) FrontTable() *report.Table {
	t := report.NewTable("Pareto front (buffer capacity vs cost)",
		"model", "mem", "total", "cores", "batch", "cost", "EMA", "energy", "latency")
	for _, m := range r.Models() {
		for _, o := range r.ParetoFront(m) {
			ema, energy, lat := "-", "-", "-"
			if o.Res != nil {
				ema = report.Bytes(o.Res.EMABytes)
				energy = report.MJ(o.Res.EnergyPJ)
				lat = fmt.Sprintf("%d", o.Res.LatencyCycles)
			}
			t.AddRow(m, o.Config.Mem.String(), report.Bytes(o.Config.Mem.TotalBytes()),
				o.Config.Cores, o.Config.Batch, fmt.Sprintf("%.4g", o.Cost), ema, energy, lat)
		}
	}
	return t
}
