package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/testutil"
	"cocco/internal/tiling"
)

// TestDifferentialRandomDAGs is the property-based cross-engine suite: on
// ~50 generated random DAGs it asserts that every engine configuration the
// stack claims equivalent actually produces identical results —
//
//   - a warm evaluator vs a cold one on mutated partitions,
//   - the GA with the genome memo on vs off (DisableGenomeMemo),
//   - Workers=1 vs Workers=7,
//   - Islands=1 under the orchestrator vs plain core.Run,
//
// varying graph shape (depth, join density, skip probability, channel
// ranges) and memory pressure so the repair path, infeasibility handling,
// and join-heavy partitions are all exercised.
func TestDifferentialRandomDAGs(t *testing.T) {
	const cases = 50
	for i := 0; i < cases; i++ {
		i := i
		t.Run(fmt.Sprintf("dag%02d", i), func(t *testing.T) {
			t.Parallel()
			n := 6 + (i*7)%30
			g := testutil.RandomDAG(int64(1000+i), n, testutil.DAGOpts{
				Layers:      2 + i%7,
				PJoin:       float64(i%4) * 0.15,
				PSkip:       float64(i%3) * 0.2,
				MaxFanIn:    1 + i%3,
				MinChannels: 8 + 4*(i%4),
				MaxChannels: 32 + 16*(i%5),
			})
			mem := hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB}
			if i%3 == 1 {
				// Tight buffers: forces the in-situ split repair to fire.
				mem = hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 64 * hw.KiB, WeightBytes: 96 * hw.KiB}
			}
			ev := func() *eval.Evaluator {
				return eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
			}

			// Warm vs cold evaluation over a mutated-partition stream.
			e := ev()
			rng := rand.New(rand.NewSource(int64(i)))
			p := core.RandomPartition(g, rng, 0.3)
			for k := 0; k < 8; k++ {
				cold := ev().Partition(p, mem)
				warm := e.Partition(p, mem)
				if !reflect.DeepEqual(cold, warm) {
					t.Fatalf("warm vs cold eval differ on mutation %d:\ncold: %+v\nwarm: %+v", k, cold, warm)
				}
				p = core.ApplyRandomMutation(g, rng, p)
			}

			base := core.Options{
				Seed: int64(100 + i), Workers: 2, Population: 12, MaxSamples: 150,
				Objective: eval.Objective{Metric: eval.MetricEMA},
				Mem:       core.MemSearch{Fixed: mem},
			}
			type run struct {
				name  string
				best  *core.Genome
				stats *core.Stats
			}
			do := func(name string, mod func(*core.Options)) run {
				opt := base
				if mod != nil {
					mod(&opt)
				}
				best, stats, err := core.Run(ev(), opt)
				if err != nil {
					// Tight-memory DAGs may legitimately have no feasible
					// genome; every engine must then agree on that too.
					return run{name: name, stats: stats}
				}
				return run{name, best, stats}
			}
			ref := do("ref", nil)
			variants := []run{
				do("no-memo", func(o *core.Options) { o.DisableGenomeMemo = true }),
				do("workers-1", func(o *core.Options) { o.Workers = 1 }),
				do("workers-7", func(o *core.Options) { o.Workers = 7 }),
			}
			islBest, islStats, islErr := Run(ev(), Options{Core: base, Islands: 1})
			if (ref.best == nil) != (islErr != nil) {
				t.Fatalf("islands=1 feasibility differs from core.Run: %v", islErr)
			}
			if ref.best != nil {
				variants = append(variants, run{"islands-1", islBest, &islStats.IslandStats[0]})
			}

			for _, v := range variants {
				if (ref.best == nil) != (v.best == nil) {
					t.Fatalf("%s: feasibility differs from ref", v.name)
				}
				if ref.best != nil {
					sameGenome(t, v.name, ref.best, v.best)
				}
				sameStats := *ref.stats
				other := *v.stats
				if v.name == "no-memo" {
					// The memo never changes the trajectory, only how many
					// samples were served from it.
					if other.MemoHits != 0 {
						t.Errorf("no-memo run reported %d memo hits", other.MemoHits)
					}
					sameStats.MemoHits, other.MemoHits = 0, 0
				}
				if !reflect.DeepEqual(sameStats, other) {
					t.Errorf("%s: stats differ:\nref: %+v\ngot: %+v", v.name, sameStats, other)
				}
			}
		})
	}
}
