package search

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/serialize"
	"cocco/internal/testutil"
	"cocco/internal/tiling"
)

func fixedMem() hw.MemConfig {
	return hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB}
}

func evaluatorFor(t testing.TB, model string) *eval.Evaluator {
	t.Helper()
	return eval.MustNew(models.MustBuild(model), hw.DefaultPlatform(), tiling.DefaultConfig())
}

// sameGenome asserts bit-exact equality of two genomes: assignment, memory
// config, cost, and every evaluation-result field (floats compared by bits).
func sameGenome(t *testing.T, label string, a, b *core.Genome) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: one genome is nil (a=%v b=%v)", label, a != nil, b != nil)
	}
	if a == nil {
		return
	}
	if !reflect.DeepEqual(a.P.Assignment(), b.P.Assignment()) {
		t.Errorf("%s: assignments differ", label)
	}
	if a.Mem != b.Mem {
		t.Errorf("%s: mem %v != %v", label, a.Mem, b.Mem)
	}
	if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
		t.Errorf("%s: cost %v != %v", label, a.Cost, b.Cost)
	}
	ra, rb := a.Res, b.Res
	if (ra == nil) != (rb == nil) {
		t.Fatalf("%s: one result is nil", label)
	}
	if ra == nil {
		return
	}
	if ra.EMABytes != rb.EMABytes || ra.LatencyCycles != rb.LatencyCycles ||
		ra.MaxActFootprint != rb.MaxActFootprint || ra.MaxWgtFootprint != rb.MaxWgtFootprint ||
		ra.NumSubgraphs != rb.NumSubgraphs || !reflect.DeepEqual(ra.Infeasible, rb.Infeasible) {
		t.Errorf("%s: integer result fields differ: %+v vs %+v", label, ra, rb)
	}
	if math.Float64bits(ra.EnergyPJ) != math.Float64bits(rb.EnergyPJ) ||
		math.Float64bits(ra.AvgBWBytesPerSec) != math.Float64bits(rb.AvgBWBytesPerSec) {
		t.Errorf("%s: float result fields differ: %+v vs %+v", label, ra, rb)
	}
}

// TestIslandsOneMatchesCoreRun pins the headline determinism contract on
// the full model zoo at the golden-corpus budget: Islands=1 with no scouts
// is bit-identical to core.Run — best genome, result, and Stats — so the
// orchestrator inherits the golden corpus transitively.
func TestIslandsOneMatchesCoreRun(t *testing.T) {
	for _, model := range models.Names() {
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			opt := core.Options{
				Seed: 42, Workers: 2, Population: 50, MaxSamples: 1500,
				Objective: eval.Objective{Metric: eval.MetricEMA},
				Mem:       core.MemSearch{Fixed: fixedMem()},
			}
			wantBest, wantStats, err := core.Run(evaluatorFor(t, model), opt)
			if err != nil {
				t.Fatal(err)
			}
			gotBest, gotStats, err := Run(evaluatorFor(t, model), Options{Core: opt, Islands: 1})
			if err != nil {
				t.Fatal(err)
			}
			sameGenome(t, model, wantBest, gotBest)
			if len(gotStats.IslandStats) != 1 {
				t.Fatalf("want 1 island stats, got %d", len(gotStats.IslandStats))
			}
			if !reflect.DeepEqual(*wantStats, gotStats.IslandStats[0]) {
				t.Errorf("island stats differ:\ncore:   %+v\nisland: %+v", *wantStats, gotStats.IslandStats[0])
			}
			if gotStats.Samples != wantStats.Samples || gotStats.FeasibleSamples != wantStats.FeasibleSamples ||
				gotStats.MemoHits != wantStats.MemoHits || gotStats.BestIsland != 0 {
				t.Errorf("aggregate stats differ: %+v vs core %+v", gotStats, wantStats)
			}
			if gotStats.Migrations != 0 {
				t.Errorf("solo island migrated %d times", gotStats.Migrations)
			}
		})
	}
}

// TestIslandWorkersDeterminism pins that the full ring — GA islands plus SA
// and greedy scouts, migration on — replays the same trajectory for every
// worker count.
func TestIslandWorkersDeterminism(t *testing.T) {
	for _, model := range []string{"resnet50", "googlenet"} {
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			base := Options{
				Core: core.Options{
					Seed: 7, Population: 24, MaxSamples: 700,
					Objective: eval.Objective{Metric: eval.MetricEMA},
					Mem:       core.MemSearch{Fixed: fixedMem()},
				},
				Islands:      3,
				MigrateEvery: 2,
				Migrants:     2,
				Scouts:       []ScoutKind{ScoutSA, ScoutGreedy},
			}
			type outcome struct {
				best  *core.Genome
				stats *Stats
			}
			var runs []outcome
			for _, workers := range []int{1, 8} {
				opt := base
				opt.Core.Workers = workers
				best, stats, err := Run(evaluatorFor(t, model), opt)
				if err != nil {
					t.Fatal(err)
				}
				runs = append(runs, outcome{best, stats})
			}
			sameGenome(t, "workers 1 vs 8", runs[0].best, runs[1].best)
			if !reflect.DeepEqual(runs[0].stats, runs[1].stats) {
				t.Errorf("stats differ across worker counts:\n1: %+v\n8: %+v", runs[0].stats, runs[1].stats)
			}
			if runs[0].stats.Migrations == 0 {
				t.Error("expected at least one migration barrier")
			}
			// The ring is 5 islands: 3 GA + 2 scouts, all contributing samples.
			if n := len(runs[0].stats.IslandStats); n != 5 {
				t.Fatalf("want 5 islands, got %d", n)
			}
			for i, is := range runs[0].stats.IslandStats {
				if is.Samples == 0 {
					t.Errorf("island %d did no work", i)
				}
			}
		})
	}
}

// TestCheckpointResume is the round-trip contract on three zoo models: pause
// a full ring mid-run at a checkpoint barrier, resume it on a fresh
// evaluator (proving the snapshot, not evaluator cache state, carries the
// run), and compare final best genome and statistics bit-for-bit against
// the uninterrupted run. The genome memo is per-process: the checkpoint
// must not carry it, and the resumed run refills it — its MemoHits may fall
// short of the uninterrupted run's, but must grow past the checkpoint's.
func TestCheckpointResume(t *testing.T) {
	for _, model := range []string{"resnet50", "googlenet", "mobilenetv2"} {
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			opt := Options{
				Core: core.Options{
					Seed: 11, Workers: 2, Population: 20, MaxSamples: 600,
					Objective: eval.Objective{Metric: eval.MetricEMA},
					Mem:       core.MemSearch{Fixed: fixedMem()},
				},
				Islands:      2,
				MigrateEvery: 2,
				Migrants:     2,
				Scouts:       []ScoutKind{ScoutSA},
			}
			wantBest, wantStats, err := Run(evaluatorFor(t, model), opt)
			if err != nil {
				t.Fatal(err)
			}

			ckpt := filepath.Join(t.TempDir(), "run.ckpt")
			paused := opt
			paused.Checkpoint = ckpt
			paused.MaxRounds = 2
			if _, _, err := Run(evaluatorFor(t, model), paused); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatalf("no checkpoint written: %v", err)
			}
			var raw struct {
				Islands []map[string]any `json:"islands"`
			}
			if err := json.Unmarshal(data, &raw); err != nil {
				t.Fatal(err)
			}
			pausedHits := 0
			for i, is := range raw.Islands {
				if _, ok := is["memo"]; ok {
					t.Errorf("island %d: checkpoint carries the genome memo", i)
				}
				if h, ok := is["memo_hits"].(float64); ok {
					pausedHits += int(h)
				}
			}
			if pausedHits == 0 {
				t.Error("the paused run recorded no memo hits; the memo was not exercised")
			}

			gotBest, gotStats, err := RunOrResume(evaluatorFor(t, model), opt, ckpt)
			if err != nil {
				t.Fatal(err)
			}
			sameGenome(t, "resume vs uninterrupted", wantBest, gotBest)
			if err := testutil.ResumedStats(wantStats, gotStats); err != nil {
				t.Error(err)
			}
			if gotStats.MemoHits <= pausedHits {
				t.Errorf("resumed run ended at %d memo hits, no more than the %d in its checkpoint: the memo is not live after a resume",
					gotStats.MemoHits, pausedHits)
			}
		})
	}
}

// TestCheckpointChainWithScouts replays a whole run as a chain of
// one-round segments, each resumed from the previous segment's checkpoint.
// This is the time-boxed -max-rounds/-resume workflow, and it regression-
// pins a once-real failure mode: migrants cloned from a restored
// population carry no evaluation result, and a scout adopting one as its
// best used to poison the next checkpoint (best entries must carry
// results), killing the chain after a few segments.
func TestCheckpointChainWithScouts(t *testing.T) {
	opt := Options{
		Core: core.Options{
			Seed: 1, Workers: 2, Population: 16, MaxSamples: 800,
			Objective: eval.Objective{Metric: eval.MetricEMA},
			Mem:       core.MemSearch{Fixed: fixedMem()},
		},
		Islands:      2,
		MigrateEvery: 1,
		Scouts:       []ScoutKind{ScoutSA, ScoutSA},
	}
	wantBest, wantStats, err := Run(evaluatorFor(t, "googlenet"), opt)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "chain.ckpt")
	seg := opt
	seg.Checkpoint = ckpt
	seg.MaxRounds = 1
	var gotBest *core.Genome
	var gotStats *Stats
	for segment := 0; ; segment++ {
		if segment > 200 {
			t.Fatal("checkpoint chain did not converge in 200 segments")
		}
		best, stats, err := RunOrResume(evaluatorFor(t, "googlenet"), seg, ckpt)
		if err != nil && (stats == nil || !stats.Paused) {
			t.Fatalf("segment %d: %v", segment, err)
		}
		if !stats.Paused {
			gotBest, gotStats = best, stats
			break
		}
	}
	sameGenome(t, "chained vs uninterrupted", wantBest, gotBest)
	if err := testutil.ResumedStats(wantStats, gotStats); err != nil {
		t.Error(err)
	}
}

// TestSAScoutCountsFeasibleSamples: an SA scout counts its chain's samples
// that fit, as a GA island counts its genomes, and a pause and resume keeps
// that count: the checkpoint carries it, and the resumed ring reports the
// uninterrupted ring's number.
func TestSAScoutCountsFeasibleSamples(t *testing.T) {
	opt := Options{
		Core: core.Options{
			Seed: 11, Workers: 1, Population: 20, MaxSamples: 600,
			Objective: eval.Objective{Metric: eval.MetricEMA},
			Mem:       core.MemSearch{Fixed: fixedMem()},
		},
		Islands: 1, MigrateEvery: 2, Scouts: []ScoutKind{ScoutSA},
	}
	_, want, err := Run(evaluatorFor(t, "mobilenetv2"), opt)
	if err != nil {
		t.Fatal(err)
	}
	sa := want.IslandStats[1]
	if sa.FeasibleSamples <= 0 || sa.FeasibleSamples > sa.Samples {
		t.Fatalf("sa scout: %d feasible of %d samples, want a positive count no larger", sa.FeasibleSamples, sa.Samples)
	}
	if sum := want.IslandStats[0].FeasibleSamples + sa.FeasibleSamples; want.FeasibleSamples != sum {
		t.Errorf("ring reports %d feasible samples, its islands %d", want.FeasibleSamples, sum)
	}

	paused := opt
	paused.Checkpoint = filepath.Join(t.TempDir(), "run.ckpt")
	paused.MaxRounds = 2
	if _, _, err := Run(evaluatorFor(t, "mobilenetv2"), paused); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(paused.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := serialize.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	snap := cp.Islands[1]
	if snap.Best == nil || snap.Best.Cost >= eval.InfeasibleCost || snap.FeasibleSamples <= 0 {
		t.Fatalf("paused sa scout: best %+v, %d feasible samples; want a feasible best and a positive count", snap.Best, snap.FeasibleSamples)
	}
	_, got, err := RunOrResume(evaluatorFor(t, "mobilenetv2"), opt, paused.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if got.IslandStats[1].FeasibleSamples != sa.FeasibleSamples {
		t.Errorf("resumed sa scout: %d feasible samples, uninterrupted %d", got.IslandStats[1].FeasibleSamples, sa.FeasibleSamples)
	}
}

// TestResumeRejectsMismatch pins the checkpoint safety rails: wrong graph
// and wrong configuration both fail loudly, and so do hostile files.
func TestResumeRejectsMismatch(t *testing.T) {
	opt := Options{
		Core: core.Options{
			Seed: 3, Workers: 1, Population: 10, MaxSamples: 60,
			Objective: eval.Objective{Metric: eval.MetricEMA},
			Mem:       core.MemSearch{Fixed: fixedMem()},
		},
		Islands: 2, MigrateEvery: 1,
		Checkpoint: filepath.Join(t.TempDir(), "m.ckpt"),
	}
	if _, _, err := Run(evaluatorFor(t, "mobilenetv2"), opt); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunOrResume(evaluatorFor(t, "resnet50"), opt, opt.Checkpoint); err == nil {
		t.Error("resume against the wrong graph succeeded")
	}
	wrong := opt
	wrong.Core.Seed = 4
	if _, _, err := RunOrResume(evaluatorFor(t, "mobilenetv2"), wrong, opt.Checkpoint); err == nil {
		t.Error("resume with a different seed succeeded")
	}
	wrong = opt
	wrong.Islands = 3
	if _, _, err := RunOrResume(evaluatorFor(t, "mobilenetv2"), wrong, opt.Checkpoint); err == nil {
		t.Error("resume with a different island count succeeded")
	}

	// Well-formed checkpoints whose state no run can reach must fail the
	// resume with an error naming the island or field, not panic inside a
	// step.
	scouted := opt
	scouted.Islands = 1
	scouted.Scouts = []ScoutKind{ScoutSA}
	scouted.MaxRounds = 1
	if _, _, err := Run(evaluatorFor(t, "mobilenetv2"), scouted); err != nil {
		t.Fatal(err)
	}
	scouted.MaxRounds = 0
	paused, err := os.ReadFile(scouted.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	for _, tc := range []struct {
		name, want string
		edit       func(*serialize.CheckpointJSON)
	}{
		{"started GA island with an empty population", "island 0", func(cp *serialize.CheckpointJSON) {
			cp.Islands[0].Population = nil
		}},
		{"SA scout with cur but no best", "island 1", func(cp *serialize.CheckpointJSON) {
			cp.Islands[1].Best = nil
		}},
		{"SA scout with samples but no chain", "island 1", func(cp *serialize.CheckpointJSON) {
			cp.Islands[1].Cur, cp.Islands[1].Best = nil, nil
		}},
		{"migrants_sent without migrants_recv", "migrants_recv", func(cp *serialize.CheckpointJSON) {
			cp.MigrantsReceived = nil
		}},
		{"migrants_recv without migrants_sent", "migrants_sent", func(cp *serialize.CheckpointJSON) {
			cp.MigrantsSent = nil
		}},
	} {
		cp, err := serialize.DecodeCheckpoint(paused)
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(cp)
		data, err := serialize.EncodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = RunOrResume(evaluatorFor(t, "mobilenetv2"), scouted, bad)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: resume error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}

// TestResumeIndentedCheckpoint resumes testdata/vgg16_indented.ckpt: a
// version-1 checkpoint, paused after one round and written, indented and
// with its genome memo, by the code from before checkpoints were compact.
// Version 1 stored random streams as math/rand draw counts, which no
// current build can continue, so the resume must fail with an error naming
// both versions and the file. The file stands for checkpoints already on
// disk; never regenerate it.
func TestResumeIndentedCheckpoint(t *testing.T) {
	opt := Options{
		Core: core.Options{
			Seed: 17, Workers: 1, Population: 10, MaxSamples: 60,
			Objective: eval.Objective{Metric: eval.MetricEnergy, Alpha: 0.002},
			Mem:       core.MemSearch{Fixed: fixedMem()},
		},
		Islands: 2, MigrateEvery: 2, Scouts: []ScoutKind{ScoutSA},
	}
	data, err := os.ReadFile(filepath.Join("testdata", "vgg16_indented.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "old.ckpt")
	if err := os.WriteFile(ckpt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := opt
	resumed.Checkpoint = ckpt
	_, _, err = RunOrResume(evaluatorFor(t, "vgg16"), resumed, ckpt)
	if err == nil {
		t.Fatal("a version-1 checkpoint resumed")
	}
	for _, want := range []string{"checkpoint version 1", "want 2", ckpt} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("resume error %q does not name %q", err, want)
		}
	}
}

// TestRunOrResume covers the cmd-level entry point: first call starts
// fresh and checkpoints, second call picks the file up and finishes with
// the uninterrupted result.
func TestRunOrResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "auto.ckpt")
	opt := Options{
		Core: core.Options{
			Seed: 5, Workers: 2, Population: 16, MaxSamples: 400,
			Objective: eval.Objective{Metric: eval.MetricEMA},
			Mem:       core.MemSearch{Fixed: fixedMem()},
		},
		Islands: 2, MigrateEvery: 2,
	}
	wantBest, wantStats, err := Run(evaluatorFor(t, "googlenet"), opt)
	if err != nil {
		t.Fatal(err)
	}

	paused := opt
	paused.Checkpoint = ckpt
	paused.MaxRounds = 1
	if _, _, err := RunOrResume(evaluatorFor(t, "googlenet"), paused, ckpt); err != nil {
		t.Fatal(err)
	}
	gotBest, gotStats, err := RunOrResume(evaluatorFor(t, "googlenet"), opt, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	sameGenome(t, "run-or-resume", wantBest, gotBest)
	if err := testutil.ResumedStats(wantStats, gotStats); err != nil {
		t.Error(err)
	}
}

// TestOptionsValidate: a zero field reads as WithDefaults fills it, and
// every admission rule refuses its field, negative values included.
func TestOptionsValidate(t *testing.T) {
	base := Options{Core: core.Options{MaxSamples: 100, Mem: core.MemSearch{Fixed: fixedMem()}}}
	if err := base.Validate(); err != nil {
		t.Fatalf("zero fields refused: %v", err)
	}
	cases := []struct {
		mut  func(*Options)
		want string
	}{
		{func(o *Options) { o.Core.MaxSamples = 0 }, "samples must be in [1, "},
		{func(o *Options) { o.Core.Population = -3 }, "population must be in [2, "},
		{func(o *Options) { o.Core.Objective.Alpha = math.Inf(1) }, "alpha must be a finite number >= 0"},
		{func(o *Options) { o.Core.Mem.Fixed.Kind = 7 }, "unknown buffer kind 7"},
		{func(o *Options) { o.Core.Mem = core.MemSearch{Search: true} }, "global-buffer range: hw: range minimum must be >= 1, got 0"},
		{func(o *Options) {
			o.Core.Mem = core.MemSearch{Search: true, Kind: hw.SharedBuffer, Global: hw.MemRange{Min: 0, Max: hw.MiB, Step: hw.KiB}}
		}, "global-buffer range: hw: range minimum must be >= 1, got 0"},
		{func(o *Options) {
			o.Core.Mem = core.MemSearch{Search: true, Kind: hw.SharedBuffer, Global: hw.MemRange{Min: 1, Max: 1 << 20, Step: 1}}
		}, "global-buffer range: hw: range must have at most 4096 candidates, got 1048576"},
		{func(o *Options) {
			o.Core.Mem = core.PaperSpace(hw.SeparateBuffer)
			o.Core.Mem.Weight.Step = 0
		}, "weight-buffer range: hw: range step must be >= 1, got 0"},
		{func(o *Options) { o.Islands = -1 }, "islands must be >= 1"},
		{func(o *Options) { o.MigrateEvery = -2 }, "migrate-every must be >= 1"},
		{func(o *Options) { o.Migrants = -1 }, "migrants must be in [1, "},
		{func(o *Options) { o.Islands, o.Scouts = math.MaxInt, []ScoutKind{ScoutSA} }, "islands + scouts must be <= 64"},
	}
	for i, tc := range cases {
		opt := base
		tc.mut(&opt)
		if err := opt.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: got %v, want an error containing %q", i, err, tc.want)
		}
		if _, _, err := Run(evaluatorFor(t, "vgg16"), opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: Run got %v, want an error containing %q", i, err, tc.want)
		}
	}
}
