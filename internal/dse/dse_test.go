package dse

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cocco/internal/core"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/search"
	"cocco/internal/serialize"
	"cocco/internal/tiling"
)

// testGrid is a small two-model sweep: 3 global × 2 weight separate-buffer
// points plus 2 shared points per model = 16 configs total.
func testGrid() Grid {
	return Grid{
		Models:      []string{"googlenet", "mobilenetv2"},
		Kinds:       []hw.BufferKind{hw.SeparateBuffer, hw.SharedBuffer},
		GlobalBytes: []int64{256 * hw.KiB, 512 * hw.KiB, 1024 * hw.KiB},
		WeightBytes: []int64{288 * hw.KiB, 576 * hw.KiB},
	}
}

// testSearch keeps per-config searches tiny; sweeps here exist to exercise
// the driver, not the optimizer.
func testSearch() search.Options {
	return search.Options{
		Core: core.Options{Seed: 17, Workers: 2, Population: 12, MaxSamples: 120},
	}
}

func TestGridConfigs(t *testing.T) {
	configs, err := testGrid().Configs()
	if err != nil {
		t.Fatal(err)
	}
	// Per model: separate 3×2=6 + shared 3×1=3 (weight axis collapses).
	if want := 2 * (6 + 3); len(configs) != want {
		t.Fatalf("got %d configs, want %d", len(configs), want)
	}
	ids := map[string]bool{}
	for i, c := range configs {
		if c.Index != i {
			t.Fatalf("config %d has Index %d", i, c.Index)
		}
		if c.Cores != 1 || c.Batch != 1 {
			t.Fatalf("default cores/batch not applied: %+v", c)
		}
		if c.Tiling != tiling.DefaultConfig() {
			t.Fatalf("default tiling not applied: %+v", c)
		}
		if ids[c.ID()] {
			t.Fatalf("duplicate config ID %q", c.ID())
		}
		ids[c.ID()] = true
		if c.Mem.Kind == hw.SharedBuffer && c.Mem.WeightBytes != 0 {
			t.Fatalf("shared point kept a weight capacity: %+v", c)
		}
	}
	// Expansion is deterministic: a second call gives the identical slice.
	again, err := testGrid().Configs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(configs, again) {
		t.Fatal("grid expansion is not deterministic")
	}
}

func TestGridConfigsRejectsBadPoints(t *testing.T) {
	mib := []int64{1 << 20}
	_, unknown := models.Build("no-such-model")
	cases := []struct {
		grid Grid
		want string
	}{
		{Grid{}, "no models"},
		{Grid{Models: []string{"googlenet"}}, "no global-buffer"},
		{Grid{Models: []string{"no-such-model"}, GlobalBytes: mib, WeightBytes: mib}, unknown.Error()},
		{Grid{Models: []string{"googlenet"}, GlobalBytes: mib}, "needs weight capacities"},
		{Grid{Models: []string{"googlenet"}, GlobalBytes: []int64{-5}, WeightBytes: mib}, "grid point"},
		{Grid{Models: []string{"googlenet"}, GlobalBytes: mib, WeightBytes: mib, Cores: []int{0}}, "cores must be >= 1"},
		{Grid{Models: []string{"googlenet"}, GlobalBytes: mib, WeightBytes: mib, Cores: []int{2, -1}}, "cores must be >= 1"},
		{Grid{Models: []string{"googlenet"}, GlobalBytes: mib, WeightBytes: mib, Batch: []int{0}}, "batch must be >= 1"},
		// Repeated values: each pair of points would share one Config.ID.
		{Grid{Models: []string{"googlenet", "googlenet"}, GlobalBytes: mib, WeightBytes: mib}, "repeats model"},
		{Grid{Models: []string{"googlenet"}, GlobalBytes: []int64{256 * hw.KiB, 256 * hw.KiB}, WeightBytes: mib}, "repeats global capacity"},
		{Grid{Models: []string{"googlenet"}, GlobalBytes: mib, WeightBytes: []int64{1 << 20, 1 << 20}}, "repeats weight capacity"},
		{Grid{Models: []string{"googlenet"}, Kinds: []hw.BufferKind{hw.SharedBuffer, hw.SharedBuffer}, GlobalBytes: mib}, "repeats buffer kind"},
		{Grid{Models: []string{"googlenet"}, GlobalBytes: mib, WeightBytes: mib, Cores: []int{1, 2, 1}}, "repeats cores"},
		{Grid{Models: []string{"googlenet"}, GlobalBytes: mib, WeightBytes: mib, Batch: []int{4, 4}}, "repeats batch"},
	}
	for i, c := range cases {
		if _, err := c.grid.Configs(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want it to contain %q", i, err, c.want)
		}
	}
	// Shared-buffer points ignore the weight axis, so its repeats collide on
	// no ID.
	shared := Grid{Models: []string{"googlenet"}, Kinds: []hw.BufferKind{hw.SharedBuffer}, GlobalBytes: mib, WeightBytes: []int64{1, 1}}
	if configs, err := shared.Configs(); err != nil || len(configs) != 1 {
		t.Errorf("shared grid with an ignored repeated weight: %d configs, %v", len(configs), err)
	}
}

// sweepCosts maps config ID -> (feasible, cost) for comparing runs.
func sweepCosts(r *Report) map[string][2]float64 {
	out := map[string][2]float64{}
	for _, o := range r.Outcomes {
		f := 0.0
		if o.Feasible {
			f = 1
		}
		out[o.Config.ID()] = [2]float64{f, o.Cost}
	}
	return out
}

func frontIDs(r *Report) map[string][]string {
	out := map[string][]string{}
	for _, m := range r.Models() {
		for _, o := range r.ParetoFront(m) {
			out[m] = append(out[m], o.Config.ID())
		}
	}
	return out
}

func TestSweepRunsGrid(t *testing.T) {
	grid := testGrid()
	rep, err := Run(Options{Grid: grid, Search: testSearch(), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	configs, _ := grid.Configs()
	if len(rep.Outcomes) != len(configs) {
		t.Fatalf("got %d outcomes, want %d", len(rep.Outcomes), len(configs))
	}
	for i, o := range rep.Outcomes {
		if o.Config.Index != i {
			t.Fatalf("outcome %d out of grid order: %+v", i, o.Config)
		}
		if o.Status == StatusPaused || o.Status == StatusSkipped {
			t.Fatalf("config %s: unexpected status %v without checkpoints", o.Config.ID(), o.Status)
		}
		if o.Status == StatusDone {
			if !o.Feasible || o.Res == nil || len(o.Assign) == 0 || o.Samples == 0 {
				t.Fatalf("done outcome missing payload: %+v", o)
			}
		}
	}
	// Every model must have a non-empty front with strictly decreasing cost
	// over strictly increasing capacity.
	for _, m := range rep.Models() {
		front := rep.ParetoFront(m)
		if len(front) == 0 {
			t.Fatalf("model %s: empty Pareto front", m)
		}
		for i := 1; i < len(front); i++ {
			if front[i].Config.Mem.TotalBytes() <= front[i-1].Config.Mem.TotalBytes() {
				t.Fatalf("model %s: front not capacity-sorted", m)
			}
			if front[i].Cost >= front[i-1].Cost {
				t.Fatalf("model %s: front point %d not cost-improving", m, i)
			}
		}
	}
	// Table renderers must cover every outcome / front point without panics.
	if got := len(rep.Table().Rows()); got != len(rep.Outcomes) {
		t.Fatalf("Table has %d rows, want %d", got, len(rep.Outcomes))
	}
	if rep.FrontTable().CSV() == "" {
		t.Fatal("empty front CSV")
	}
}

// TestSweepWorkersIrrelevant pins that the worker count does not change any
// outcome (each config's search is self-contained and seeded by index).
func TestSweepWorkersIrrelevant(t *testing.T) {
	grid := Grid{
		Models:      []string{"googlenet"},
		GlobalBytes: []int64{256 * hw.KiB, 1024 * hw.KiB},
		WeightBytes: []int64{288 * hw.KiB},
	}
	serial, err := Run(Options{Grid: grid, Search: testSearch(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallelRep, err := Run(Options{Grid: grid, Search: testSearch(), Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sweepCosts(serial), sweepCosts(parallelRep)) {
		t.Fatal("worker count changed sweep results")
	}
}

func TestSweepSkipsCompleted(t *testing.T) {
	dir := t.TempDir()
	grid := Grid{
		Models:      []string{"googlenet"},
		GlobalBytes: []int64{256 * hw.KiB, 512 * hw.KiB},
		WeightBytes: []int64{288 * hw.KiB},
	}
	first, err := Run(Options{Grid: grid, Search: testSearch(), CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(Options{Grid: grid, Search: testSearch(), CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range second.Outcomes {
		if o.Status != StatusSkipped {
			t.Fatalf("config %s not skipped on rerun: %v", o.Config.ID(), o.Status)
		}
		w := first.Outcomes[i]
		if o.Feasible != w.Feasible || o.Cost != w.Cost || o.Samples != w.Samples ||
			!reflect.DeepEqual(o.Assign, w.Assign) {
			t.Fatalf("config %s: restored outcome diverges\n first: %+v\nsecond: %+v", o.Config.ID(), w, o)
		}
		if w.Res != nil {
			if o.Res == nil || o.Res.EMABytes != w.Res.EMABytes || o.Res.EnergyPJ != w.Res.EnergyPJ ||
				o.Res.LatencyCycles != w.Res.LatencyCycles || o.Res.NumSubgraphs != w.Res.NumSubgraphs {
				t.Fatalf("config %s: restored result diverges", o.Config.ID())
			}
		}
	}
	// Completed configs leave no search checkpoints behind.
	if m, _ := filepath.Glob(filepath.Join(dir, "*.ckpt")); len(m) != 0 {
		t.Fatalf("stale checkpoints after completed sweep: %v", m)
	}
}

// TestSweepWritesCacheSnapshots: a checkpointed sweep leaves ONE decodable
// cost-cache snapshot per (model, tiling, core geometry) group — not one
// per config — and a rerun warm-starts from it without changing any
// outcome.
func TestSweepWritesCacheSnapshots(t *testing.T) {
	dir := t.TempDir()
	grid := Grid{
		Models:      []string{"googlenet"},
		GlobalBytes: []int64{256 * hw.KiB, 512 * hw.KiB},
		WeightBytes: []int64{288 * hw.KiB},
	}
	first, err := Run(Options{Grid: grid, Search: testSearch(), CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	configs, _ := grid.Configs()
	groupPath := groupCachePath(dir, configs[0], hw.DefaultPlatform().Core)
	snap, err := serialize.ReadCostCacheFile(groupPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) == 0 {
		t.Error("empty geometry-group cache snapshot")
	}
	// One file per geometry group: this single-model single-geometry sweep
	// must leave exactly one .cache file, whatever its config count.
	if m, _ := filepath.Glob(filepath.Join(dir, "*.cache")); len(m) != 1 {
		t.Fatalf("want exactly 1 geometry-group cache file, got %v", m)
	}
	// Fresh checkpoint dir seeded with only the group snapshot: the whole
	// grid re-searches from the warm cache and must reproduce every outcome.
	warmDir := t.TempDir()
	data, err := os.ReadFile(groupPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(groupCachePath(warmDir, configs[0], hw.DefaultPlatform().Core), data, 0o644); err != nil {
		t.Fatal(err)
	}
	warm, err := Run(Options{Grid: grid, Search: testSearch(), CheckpointDir: warmDir})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sweepCosts(warm), sweepCosts(first)) {
		t.Fatalf("warm-started sweep diverges\n want %v\n got %v", sweepCosts(first), sweepCosts(warm))
	}

	// Opting out really opts out.
	offDir := t.TempDir()
	if _, err := Run(Options{Grid: grid, Search: testSearch(), CheckpointDir: offDir,
		DisableCacheSnapshots: true}); err != nil {
		t.Fatal(err)
	}
	if m, _ := filepath.Glob(filepath.Join(offDir, "*.cache")); len(m) != 0 {
		t.Fatalf("cache snapshots written despite DisableCacheSnapshots: %v", m)
	}
}

// TestSweepRejectsCorruptCacheSnapshot: a damaged geometry-group cache file
// fails the sweep loudly instead of silently starting cold or loading junk.
func TestSweepRejectsCorruptCacheSnapshot(t *testing.T) {
	grid := Grid{
		Models:      []string{"googlenet"},
		GlobalBytes: []int64{256 * hw.KiB},
		WeightBytes: []int64{288 * hw.KiB},
	}
	configs, _ := grid.Configs()
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"garbage", []byte("not a cache snapshot at all")},
		{"truncated magic", []byte("COCCACHE")},
	} {
		dir := t.TempDir()
		path := groupCachePath(dir, configs[0], hw.DefaultPlatform().Core)
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(Options{Grid: grid, Search: testSearch(), CheckpointDir: dir}); err == nil {
			t.Errorf("%s: corrupt cache snapshot accepted", tc.name)
		}
	}
}

// TestSweepSkipsStaleCacheFiles: pre-geometry cache files — per-config
// names from the old layout, and old-format frames under the new name —
// are reported through Warnf and skipped, never a hard failure, so
// checkpoint dirs written before the shared cache remain resumable.
func TestSweepSkipsStaleCacheFiles(t *testing.T) {
	dir := t.TempDir()
	grid := Grid{
		Models:      []string{"googlenet"},
		GlobalBytes: []int64{256 * hw.KiB},
		WeightBytes: []int64{288 * hw.KiB},
	}
	configs, _ := grid.Configs()
	// A per-config cache file as the PR-7 layout named them.
	stalePerConfig := filepath.Join(dir, configs[0].ID()+".cache")
	if err := os.WriteFile(stalePerConfig, []byte("old per-config snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A version-1 frame under the new geometry-group name: magic + version 1,
	// then padding so only the version check can reject it.
	old := append([]byte("COCCACHE"), 1, 0, 0, 0)
	old = append(old, make([]byte, 40)...)
	groupPath := groupCachePath(dir, configs[0], hw.DefaultPlatform().Core)
	if err := os.WriteFile(groupPath, old, 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var warnings []string
	rep, err := Run(Options{Grid: grid, Search: testSearch(), CheckpointDir: dir,
		Warnf: func(format string, args ...any) {
			mu.Lock()
			warnings = append(warnings, fmt.Sprintf(format, args...))
			mu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != len(configs) {
		t.Fatalf("sweep incomplete: %d outcomes, want %d", len(rep.Outcomes), len(configs))
	}
	wantSubstrings := []string{stalePerConfig, "version too old"}
	for _, want := range wantSubstrings {
		found := false
		for _, w := range warnings {
			if strings.Contains(w, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no warning mentioning %q in %q", want, warnings)
		}
	}
	// The sweep ran cold past the stale files and replaced the group
	// snapshot with a current-format one.
	if _, err := serialize.ReadCostCacheFile(groupPath); err != nil {
		t.Fatalf("group snapshot not rewritten in current format: %v", err)
	}
	// The stale per-config file is left untouched for the user to delete.
	if _, err := os.Stat(stalePerConfig); err != nil {
		t.Fatalf("stale per-config file was removed: %v", err)
	}
}

func TestSweepRejectsForeignOutcomeFile(t *testing.T) {
	dir := t.TempDir()
	grid := Grid{
		Models:      []string{"googlenet"},
		GlobalBytes: []int64{256 * hw.KiB},
		WeightBytes: []int64{288 * hw.KiB},
	}
	configs, _ := grid.Configs()
	// An outcome file whose recorded config ID disagrees with its filename
	// (e.g. hand-renamed) must fail the sweep, not silently misattribute.
	path := filepath.Join(dir, configs[0].ID()+".done.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"config_id":"other","feasible":false,"samples":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Options{Grid: grid, Search: testSearch(), CheckpointDir: dir}); err == nil {
		t.Fatal("mismatched outcome file accepted")
	}
}

// TestSweepResumeParetoIdentical is the resumability contract: a sweep
// interrupted mid-grid — both by an abort between configs and by MaxRounds
// pauses inside configs — and then resumed produces outcome costs and a
// Pareto front bit-identical to an uninterrupted run.
func TestSweepResumeParetoIdentical(t *testing.T) {
	grid := Grid{
		Models:      []string{"googlenet", "mobilenetv2"},
		GlobalBytes: []int64{256 * hw.KiB, 512 * hw.KiB, 1024 * hw.KiB},
		WeightBytes: []int64{288 * hw.KiB},
	}

	// Reference: one uninterrupted sweep.
	want, err := Run(Options{Grid: grid, Search: testSearch(), CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: phase 1 aborts after 2 completed configs; phase 2 runs
	// every remaining config but pauses each search after 2 rounds; phase 3
	// finishes everything. Workers=1 keeps the abort point deterministic.
	dir := t.TempDir()
	seen := 0
	_, err = Run(Options{Grid: grid, Search: testSearch(), CheckpointDir: dir, Workers: 1,
		OnConfigDone: func(Outcome) error {
			seen++
			if seen == 2 {
				return fmt.Errorf("simulated crash")
			}
			return nil
		}})
	if err == nil {
		t.Fatal("expected abort error")
	}

	paused := testSearch()
	paused.MaxRounds = 1
	mid, err := Run(Options{Grid: grid, Search: paused, CheckpointDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sawPause, sawSkip := false, false
	for _, o := range mid.Outcomes {
		sawPause = sawPause || o.Status == StatusPaused
		sawSkip = sawSkip || o.Status == StatusSkipped
	}
	if !sawPause || !sawSkip {
		t.Fatalf("interrupted pass exercised too little: paused=%v skipped=%v", sawPause, sawSkip)
	}
	if !mid.Paused() {
		t.Fatal("Report.Paused() must reflect paused configs")
	}

	got, err := Run(Options{Grid: grid, Search: testSearch(), CheckpointDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	resumedAny := false
	for _, o := range got.Outcomes {
		resumedAny = resumedAny || o.Resumed
	}
	if !resumedAny {
		t.Fatal("final pass resumed no search checkpoints")
	}

	if !reflect.DeepEqual(sweepCosts(got), sweepCosts(want)) {
		t.Fatalf("resumed sweep costs diverge\n want %v\n got %v", sweepCosts(want), sweepCosts(got))
	}
	if !reflect.DeepEqual(frontIDs(got), frontIDs(want)) {
		t.Fatalf("resumed Pareto front diverges\n want %v\n got %v", frontIDs(want), frontIDs(got))
	}
}
