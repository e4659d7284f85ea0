package search

import (
	"reflect"
	"testing"

	"cocco/internal/core"
	"cocco/internal/eval"
)

// TestProgressCallback pins the observation contract behind the serve
// scheduler: Progress fires once per completed round with monotone counters,
// its final snapshot agrees with the returned Stats, and registering it
// neither shapes the trajectory nor changes the checkpoint fingerprint.
func TestProgressCallback(t *testing.T) {
	opt := Options{
		Core: core.Options{
			Seed: 11, Workers: 1, Population: 20, MaxSamples: 600,
			Objective: eval.Objective{Metric: eval.MetricEMA},
			Mem:       core.MemSearch{Fixed: fixedMem()},
		},
		Islands:      2,
		MigrateEvery: 2,
		Scouts:       []ScoutKind{ScoutSA},
	}

	wantBest, wantStats, err := Run(evaluatorFor(t, "mobilenetv2"), opt)
	if err != nil {
		t.Fatal(err)
	}

	var snaps []Stats
	var lastBest *core.Genome
	watched := opt
	watched.Progress = func(best *core.Genome, st *Stats) { snaps, lastBest = append(snaps, *st), best }
	if a, b := Fingerprint(opt), Fingerprint(watched); a != b {
		t.Errorf("Progress changed the fingerprint:\n  %s\n  %s", a, b)
	}
	gotBest, gotStats, err := Run(evaluatorFor(t, "mobilenetv2"), watched)
	if err != nil {
		t.Fatal(err)
	}
	sameGenome(t, "watched", wantBest, gotBest)
	if !reflect.DeepEqual(wantStats, gotStats) {
		t.Errorf("watching changed the stats:\nwant %+v\ngot  %+v", wantStats, gotStats)
	}
	if len(snaps) == 0 {
		t.Fatal("Progress never fired")
	}
	for i, p := range snaps {
		if p.Rounds != i+1 {
			t.Fatalf("snapshot %d reports round %d; want one callback per round", i, p.Rounds)
		}
		if i > 0 {
			prev := snaps[i-1]
			if p.Samples < prev.Samples || p.Migrations < prev.Migrations || p.FeasibleSamples < prev.FeasibleSamples {
				t.Fatalf("snapshot %d went backwards: %+v after %+v", i, p, prev)
			}
		}
		if len(p.IslandStats) != 3 {
			t.Fatalf("snapshot %d has %d island stats, want 3", i, len(p.IslandStats))
		}
	}

	last := snaps[len(snaps)-1]
	if last.Rounds != gotStats.Rounds || last.Migrations != gotStats.Migrations ||
		last.Samples != gotStats.Samples || last.FeasibleSamples != gotStats.FeasibleSamples ||
		last.MemoHits != gotStats.MemoHits || last.BestIsland != gotStats.BestIsland {
		t.Errorf("final snapshot disagrees with Stats:\nsnap  %+v\nstats %+v", last, gotStats)
	}
	if lastBest == nil {
		t.Fatal("final snapshot has no best despite a feasible run")
	}
	if lastBest.Cost != gotBest.Cost {
		t.Errorf("final snapshot best cost %v, want %v", lastBest.Cost, gotBest.Cost)
	}
}
