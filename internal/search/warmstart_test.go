package search

import (
	"encoding/binary"
	"reflect"
	"testing"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/serialize"
	"cocco/internal/tiling"
)

// TestWarmStartBitIdentical pins the cache-snapshot contract across the
// model zoo: a search started from a loaded cost-cache snapshot returns the
// bit-identical best genome and Stats a cold search returns. The snapshot
// only changes which subgraph costs are computed vs looked up — never a
// cost value, never the search trajectory. Each model is checked against
// three snapshots: one primed by the identical run (every lookup warm), one
// primed by a different-seed run (partial overlap, the realistic case), and
// one primed by a sibling hardware config sharing the core geometry (the
// cross-config warm start the geometry-keyed fingerprint exists for).
//
// A fourth, Workers: 1 full-overlap leg counts what the snapshot saves:
// LoadCache adds every exported entry, and the warm search misses exactly
// on the subgraphs ExportCache leaves out (those whose costing failed), so
// every other cold subgraph costing of the search became a hit.
func TestWarmStartBitIdentical(t *testing.T) {
	for _, model := range models.Names() {
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			opt := Options{Core: core.Options{
				Seed: 42, Workers: 2, Population: 30, MaxSamples: 600,
				Objective: eval.Objective{Metric: eval.MetricEMA},
				Mem:       core.MemSearch{Fixed: fixedMem()},
			}, Islands: 1}

			coldBest, coldStats, err := Run(evaluatorFor(t, model), opt)
			if err != nil {
				t.Fatal(err)
			}

			// Snapshot A: primed by the identical run — full coverage.
			primer := evaluatorFor(t, model)
			if _, _, err := Run(primer, opt); err != nil {
				t.Fatal(err)
			}
			full, err := primer.ExportCache()
			if err != nil {
				t.Fatal(err)
			}

			// Snapshot B: primed by a different seed — partial coverage.
			other := evaluatorFor(t, model)
			otherOpt := opt
			otherOpt.Core.Seed = 7
			if _, _, err := Run(other, otherOpt); err != nil {
				t.Fatal(err)
			}
			partial, err := other.ExportCache()
			if err != nil {
				t.Fatal(err)
			}

			// Snapshot C: primed by a SIBLING config — same core geometry,
			// different core count, batch, and memory capacities. The
			// geometry-keyed fingerprint accepts it, and because raw subgraph
			// costs depend only on the geometry, warm-starting from a
			// different config's snapshot must still be bit-identical.
			sibPlatform := hw.DefaultPlatform()
			sibPlatform.Cores = 4
			sibPlatform.Batch = 2
			sibling := eval.MustNew(models.MustBuild(model), sibPlatform, tiling.DefaultConfig())
			sibOpt := opt
			sibOpt.Core.Seed = 11
			sibOpt.Core.Mem = core.MemSearch{Fixed: hw.MemConfig{
				Kind: hw.SeparateBuffer, GlobalBytes: 512 * hw.KiB, WeightBytes: 576 * hw.KiB}}
			if _, _, err := Run(sibling, sibOpt); err != nil {
				t.Fatal(err)
			}
			crossConfig, err := sibling.ExportCache()
			if err != nil {
				t.Fatal(err)
			}

			for _, tc := range []struct {
				name string
				snap *eval.CacheSnapshot
			}{{"full-overlap", full}, {"partial-overlap", partial}, {"cross-config", crossConfig}} {
				warm := evaluatorFor(t, model)
				if _, err := warm.LoadCache(tc.snap); err != nil {
					t.Fatal(err)
				}
				warmBest, warmStats, err := Run(warm, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameGenome(t, tc.name, coldBest, warmBest)
				if !reflect.DeepEqual(coldStats, warmStats) {
					t.Errorf("%s: stats differ: cold %+v warm %+v", tc.name, coldStats, warmStats)
				}
			}

			// Workers: 1 full overlap: exact counts, no racing duplicate misses.
			serialOpt := opt
			serialOpt.Core.Workers = 1
			cold := evaluatorFor(t, model)
			if _, _, err := Run(cold, serialOpt); err != nil {
				t.Fatal(err)
			}
			snap, err := cold.ExportCache()
			if err != nil {
				t.Fatal(err)
			}
			warm := evaluatorFor(t, model)
			if added, err := warm.LoadCache(snap); err != nil || added != len(snap.Entries) {
				t.Fatalf("LoadCache added %d (err %v), want all %d snapshot entries", added, err, len(snap.Entries))
			}
			if _, _, err := Run(warm, serialOpt); err != nil {
				t.Fatal(err)
			}
			hits, calls := warm.CacheStats()
			if misses, unexported := calls-hits, cold.CacheEntries()-int64(len(snap.Entries)); misses != unexported {
				t.Errorf("warm serial search missed %d times, want %d (the cold run's %d entries less the %d exported)",
					misses, unexported, cold.CacheEntries(), len(snap.Entries))
			}

			// A geometry-mismatched snapshot must be refused, not loaded.
			otherGeom := hw.DefaultPlatform()
			otherGeom.Core.PERows = 2
			mismatched := eval.MustNew(models.MustBuild(model), otherGeom, tiling.DefaultConfig())
			if _, err := mismatched.LoadCache(full); err == nil {
				t.Error("geometry-mismatched snapshot load succeeded, want fingerprint error")
			}
		})
	}
}

// FuzzCostCacheLoad drives fuzzed records and key arenas, stamped with the
// target evaluator's own fingerprint, down a snapshot's whole path: the
// encoder (inputs it refuses are skipped), the decoder, LoadCache, and one
// small search round on mobilenetv2 over whatever loaded. Each step must
// return an error or finish; none may panic. The seed is a real snapshot
// of that search.
func FuzzCostCacheLoad(f *testing.F) {
	g := models.MustBuild("mobilenetv2")
	opt := Options{Core: core.Options{
		Seed: 5, Workers: 1, Population: 4, MaxSamples: 8,
		Objective: eval.Objective{Metric: eval.MetricEMA},
		Mem:       core.MemSearch{Fixed: fixedMem()},
	}}
	primer := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	if _, _, err := Run(primer, opt); err != nil {
		f.Fatal(err)
	}
	snap, err := primer.ExportCache()
	if err != nil {
		f.Fatal(err)
	}
	var recs []byte
	for _, r := range snap.Entries {
		recs = binary.LittleEndian.AppendUint32(recs, r.Off)
		recs = binary.LittleEndian.AppendUint32(recs, r.KeyLen)
		for _, v := range [...]int64{r.WeightBytes, r.InBytes, r.OutBytes, r.ActFootprint, r.MACs, r.ComputeCycles, r.GLBAccessBytes} {
			recs = binary.LittleEndian.AppendUint64(recs, uint64(v))
		}
	}
	f.Add(recs, snap.Arena)
	f.Fuzz(func(t *testing.T, recs, arena []byte) {
		ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
		in := &eval.CacheSnapshot{Fingerprint: ev.CacheFingerprint(), Arena: arena}
		for ; len(recs) >= 64; recs = recs[64:] {
			v := func(i int) int64 { return int64(binary.LittleEndian.Uint64(recs[8+8*i:])) }
			in.Entries = append(in.Entries, eval.CacheRecord{
				Off: binary.LittleEndian.Uint32(recs), KeyLen: binary.LittleEndian.Uint32(recs[4:]),
				WeightBytes: v(0), InBytes: v(1), OutBytes: v(2), ActFootprint: v(3),
				MACs: v(4), ComputeCycles: v(5), GLBAccessBytes: v(6),
			})
		}
		data, err := serialize.EncodeCostCache(in)
		if err != nil {
			return
		}
		back, err := serialize.DecodeCostCache(data)
		if err != nil {
			t.Fatalf("an encoded snapshot does not decode: %v", err)
		}
		if _, err := ev.LoadCache(back); err != nil {
			return
		}
		_, _, _ = Run(ev, opt) // an error is a valid outcome; a panic fails the input
	})
}
