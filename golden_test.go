package cocco

// Golden-regression corpus: one small, fully seeded GA run per model in the
// zoo, with the best partition and its evaluation pinned under
// testdata/golden/. Any change to the search trajectory, the evaluation
// model, or the evaluation path that alters results shows up as a readable
// JSON diff here. Regenerate intentionally with
//
//	go test -run TestGoldenRegression -update .
//
// TestGoldenScored adds the scored paths under testdata/golden/scored/
// (Formula 2 through core.Run, the SA and two-step baselines, and a ring
// with scouts), regenerated the same way with -run TestGoldenScored.
//
// The runs ride on the PR-1 determinism contract: results are bit-identical
// for every Workers value, so the corpus is stable across machines.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cocco/internal/baselines"
	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/search"
	"cocco/internal/serialize"
	"cocco/internal/tiling"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden instead of diffing")

// goldenBudget mirrors experiments.Quick()'s final-pass budget: big enough
// that the search leaves the random-initialization regime, small enough that
// the whole corpus regenerates in seconds.
const (
	goldenSamples    = 1500
	goldenPopulation = 50
	goldenSeed       = 42
)

// goldenRun is the pinned outcome of one seeded run.
type goldenRun struct {
	Model         string          `json:"model"`
	Seed          int64           `json:"seed"`
	MaxSamples    int             `json:"max_samples"`
	Population    int             `json:"population"`
	Cost          float64         `json:"cost"`
	EMABytes      int64           `json:"ema_bytes"`
	EnergyPJ      float64         `json:"energy_pj"`
	LatencyCycles int64           `json:"latency_cycles"`
	Feasible      bool            `json:"feasible"`
	Subgraphs     int             `json:"subgraphs"`
	BestPartition json.RawMessage `json:"best_partition"`
}

func goldenFor(t *testing.T, model string) []byte {
	t.Helper()
	ev := eval.MustNew(models.MustBuild(model), hw.DefaultPlatform(), tiling.DefaultConfig())
	mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB}
	best, _, err := core.Run(ev, core.Options{
		Seed: goldenSeed, Workers: 4, Population: goldenPopulation, MaxSamples: goldenSamples,
		Objective: eval.Objective{Metric: eval.MetricEMA},
		Mem:       core.MemSearch{Fixed: mem},
	})
	if err != nil {
		t.Fatalf("%s: %v", model, err)
	}
	pj, err := serialize.EncodePartition(best.P)
	if err != nil {
		t.Fatalf("%s: encode partition: %v", model, err)
	}
	out, err := json.MarshalIndent(goldenRun{
		Model:         model,
		Seed:          goldenSeed,
		MaxSamples:    goldenSamples,
		Population:    goldenPopulation,
		Cost:          best.Cost,
		EMABytes:      best.Res.EMABytes,
		EnergyPJ:      best.Res.EnergyPJ,
		LatencyCycles: best.Res.LatencyCycles,
		Feasible:      best.Res.Feasible(),
		Subgraphs:     best.Res.NumSubgraphs,
		BestPartition: pj,
	}, "", "  ")
	if err != nil {
		t.Fatalf("%s: marshal: %v", model, err)
	}
	return append(out, '\n')
}

// TestGoldenRegression diffs every model's seeded run against its pinned
// dump, or rewrites the corpus under -update.
func TestGoldenRegression(t *testing.T) {
	for _, model := range models.Names() {
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, filepath.Join("testdata", "golden", model+".json"), goldenFor(t, model))
		})
	}
}

// checkGolden diffs got against the pinned file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run %s -update .`): %v", t.Name(), err)
	}
	if string(got) != string(want) {
		t.Errorf("golden mismatch for %s — if the change is intentional, regenerate with -update\n%s",
			path, goldenDiff(string(want), string(got)))
	}
}

// goldenScored is the pinned outcome of one seeded run scored with
// Formula 2. The traces are not pinned: only the final genome and the
// sample tallies.
type goldenScored struct {
	Run              string                  `json:"run"`
	Model            string                  `json:"model"`
	Seed             int64                   `json:"seed"`
	Cost             float64                 `json:"cost"`
	CostBits         string                  `json:"cost_bits"`
	Mem              serialize.MemConfigJSON `json:"mem"`
	Samples          int                     `json:"samples"`
	FeasibleSamples  int                     `json:"feasible_samples"`
	IslandSamples    []int                   `json:"island_samples,omitempty"`
	MigrantsSent     []int                   `json:"migrants_sent,omitempty"`
	MigrantsReceived []int                   `json:"migrants_received,omitempty"`
	BestPartition    json.RawMessage         `json:"best_partition"`
}

// tally counts a trace's samples and feasible samples.
type tally struct{ samples, feasible int }

func (c *tally) trace(tp core.TracePoint) {
	c.samples++
	if tp.Feasible {
		c.feasible++
	}
}

// TestGoldenScored pins the scored paths the partition-only corpus does not
// reach: co-exploration with energy and α = 0.002 through core.Run, the SA
// baseline and the grid-search two-step scheme over the separate design,
// and a ring of two GA islands plus an SA and a greedy scout over the
// shared design. googlenet, at the corpus's seed and budget.
func TestGoldenScored(t *testing.T) {
	const model = "googlenet"
	obj := eval.Objective{Metric: eval.MetricEnergy, Alpha: 0.002}
	sep := core.PaperSpace(hw.SeparateBuffer)
	gaOpt := core.Options{
		Seed: goldenSeed, Workers: 4, Population: goldenPopulation, MaxSamples: goldenSamples,
		Objective: obj, Mem: sep,
	}
	runs := []struct {
		name string
		run  func(ev *eval.Evaluator, out *goldenScored) (*core.Genome, error)
	}{
		{"coexplore", func(ev *eval.Evaluator, out *goldenScored) (*core.Genome, error) {
			best, st, err := core.Run(ev, gaOpt)
			if err == nil {
				out.Samples, out.FeasibleSamples = st.Samples, st.FeasibleSamples
			}
			return best, err
		}},
		{"sa", func(ev *eval.Evaluator, out *goldenScored) (*core.Genome, error) {
			var c tally
			best, err := baselines.SA(ev, baselines.SAOptions{
				Seed: goldenSeed, MaxSamples: goldenSamples, Objective: obj, Mem: sep, Trace: c.trace,
			})
			out.Samples, out.FeasibleSamples = c.samples, c.feasible
			return best, err
		}},
		{"twostep-gs", func(ev *eval.Evaluator, out *goldenScored) (*core.Genome, error) {
			var c tally
			best, err := baselines.TwoStep(ev, baselines.TwoStepOptions{
				Seed: goldenSeed, Workers: 4, Method: baselines.GridSearch,
				Candidates: 3, SamplesPerCandidate: 500,
				Kind: sep.Kind, Global: sep.Global, Weight: sep.Weight,
				Objective: obj, Trace: c.trace,
			})
			out.Samples, out.FeasibleSamples = c.samples, c.feasible
			return best, err
		}},
		{"ring", func(ev *eval.Evaluator, out *goldenScored) (*core.Genome, error) {
			opt := gaOpt
			opt.Mem = core.PaperSpace(hw.SharedBuffer)
			best, st, err := search.Run(ev, search.Options{
				Core: opt, Islands: 2, Scouts: []search.ScoutKind{search.ScoutSA, search.ScoutGreedy},
			})
			if err == nil {
				out.Samples, out.FeasibleSamples = st.Samples, st.FeasibleSamples
				for _, is := range st.IslandStats {
					out.IslandSamples = append(out.IslandSamples, is.Samples)
				}
				out.MigrantsSent, out.MigrantsReceived = st.MigrantsSent, st.MigrantsReceived
			}
			return best, err
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			ev := eval.MustNew(models.MustBuild(model), hw.DefaultPlatform(), tiling.DefaultConfig())
			out := goldenScored{Run: r.name, Model: model, Seed: goldenSeed}
			best, err := r.run(ev, &out)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			out.Cost = best.Cost
			out.CostBits = fmt.Sprintf("%#016x", math.Float64bits(best.Cost))
			out.Mem = serialize.EncodeMemConfig(best.Mem)
			if out.BestPartition, err = serialize.EncodePartition(best.P); err != nil {
				t.Fatalf("%s: encode partition: %v", r.name, err)
			}
			got, err := json.MarshalIndent(out, "", "  ")
			if err != nil {
				t.Fatalf("%s: marshal: %v", r.name, err)
			}
			checkGolden(t, filepath.Join("testdata", "golden", "scored", model+"."+r.name+".json"), append(got, '\n'))
		})
	}
}

// goldenDiff renders a compact first-divergence report (full JSON diffs are
// long; the first differing line plus context is what a reviewer needs).
func goldenDiff(want, got string) string {
	wl, gl := splitLines(want), splitLines(got)
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("first divergence at line %d:\n  golden: %s\n  got:    %s", i+1, w, g)
		}
	}
	return "contents equal?"
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
