package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/tiling"
)

// TestCacheSnapshotRoundTrip exports a populated cache and loads it into a
// fresh evaluator: every entry must come back with identical numeric fields
// and identical member decoding, and warm lookups against the loaded cache
// must be pure hits.
func TestCacheSnapshotRoundTrip(t *testing.T) {
	g, ids := toy(t)
	src := testEvaluator(t, g)
	subs := [][]int{
		{ids[1]}, {ids[2]}, {ids[3]},
		{ids[1], ids[2]}, {ids[2], ids[3]}, {ids[1], ids[2], ids[3]},
	}
	want := make([]*SubgraphCost, len(subs))
	for i, s := range subs {
		want[i] = src.Subgraph(s)
	}

	snap, err := src.ExportCache()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) != len(subs) {
		t.Fatalf("snapshot has %d entries, want %d", len(snap.Entries), len(subs))
	}

	dst := testEvaluator(t, g)
	added, err := dst.LoadCache(snap)
	if err != nil {
		t.Fatal(err)
	}
	if added != len(subs) {
		t.Fatalf("loaded %d entries, want %d", added, len(subs))
	}
	hits0, _ := dst.CacheStats()
	for i, s := range subs {
		got := dst.Subgraph(s)
		w := want[i]
		if got.WeightBytes != w.WeightBytes || got.InBytes != w.InBytes ||
			got.OutBytes != w.OutBytes || got.ActFootprint != w.ActFootprint ||
			got.MACs != w.MACs || got.ComputeCycles != w.ComputeCycles ||
			got.GLBAccessBytes != w.GLBAccessBytes {
			t.Errorf("subgraph %v: loaded cost differs: %+v vs %+v", s, got, w)
		}
		if len(got.Members) != len(w.Members) {
			t.Errorf("subgraph %v: members %v vs %v", s, got.Members, w.Members)
		}
	}
	hits, calls := dst.CacheStats()
	if hits-hits0 != int64(len(subs)) {
		t.Errorf("post-load lookups: %d hits of %d calls, want all hits", hits-hits0, calls)
	}
}

// TestLoadCacheKeepFirst pins pointer stability across loads: an entry the
// evaluator already computed keeps its *SubgraphCost when a snapshot holding
// the same key is loaded, so delta handles taken before the load stay valid.
func TestLoadCacheKeepFirst(t *testing.T) {
	g, ids := toy(t)
	src := testEvaluator(t, g)
	sub := []int{ids[1], ids[2]}
	src.Subgraph(sub)
	snap, err := src.ExportCache()
	if err != nil {
		t.Fatal(err)
	}

	dst := testEvaluator(t, g)
	before := dst.Subgraph(sub)
	added, err := dst.LoadCache(snap)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Errorf("load added %d entries over an existing key, want 0", added)
	}
	if after := dst.Subgraph(sub); after != before {
		t.Error("keep-first load replaced an existing *SubgraphCost")
	}
	// Loading twice is idempotent.
	if added, _ := dst.LoadCache(snap); added != 0 {
		t.Errorf("second load added %d entries, want 0", added)
	}
}

// TestLoadCacheForeignFingerprint: snapshots from a different core
// geometry or tiling config are rejected loudly, while sibling platforms —
// same geometry, different memory capacities / buffer kind / core count /
// batch — load the same snapshot successfully: the fingerprint pins exactly
// what subgraph costing depends on, nothing more.
func TestLoadCacheForeignFingerprint(t *testing.T) {
	g, ids := toy(t)
	src := testEvaluator(t, g)
	src.Subgraph([]int{ids[1]})
	snap, err := src.ExportCache()
	if err != nil {
		t.Fatal(err)
	}

	// Sibling configs of a DSE sweep accept the snapshot.
	sibling := hw.DefaultPlatform()
	sibling.Cores = 4
	sibling.Batch = 8
	evS, err := New(g, sibling, tiling.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evS.LoadCache(snap); err != nil {
		t.Errorf("same-geometry sibling platform: %v, want successful load", err)
	}

	// A different core geometry is a different fingerprint.
	otherGeom := hw.DefaultPlatform()
	otherGeom.Core.PERows = 2
	evP, err := New(g, otherGeom, tiling.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evP.LoadCache(snap); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("foreign core geometry: err = %v, want fingerprint mismatch", err)
	}

	evT, err := New(g, hw.DefaultPlatform(), tiling.Config{BaseTileH: 4, BaseTileW: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evT.LoadCache(snap); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("foreign tiling: err = %v, want fingerprint mismatch", err)
	}
}

// TestExportCacheSkipsErrEntries: subgraphs whose tiling derivation failed
// are cached in memory (so the error is computed once) but never exported —
// a warm evaluator recomputes the identical error on demand. The failing
// subgraph is tiling's wrapped-rates chain (TestDeriveRejectsWrappedUpdateRate),
// whose strides multiply past 2^63.
func TestExportCacheSkipsErrEntries(t *testing.T) {
	b := graph.NewBuilder("wrapped-rates")
	in := b.Input("in", 1, 1, 1)
	n0 := b.Custom("n0", graph.OpConv, 2, 1, 1, 1, 1, 1, in)
	n1 := b.Custom("n1", graph.OpConv, 2, 16, 1, 1, 1, 1, n0)
	n2 := b.Custom("n2", graph.OpConv, 3, 5, 1, 1, 1, 1, n1)
	n3 := b.Custom("n3", graph.OpConv, 2, 1<<21, 1, 1, 1, 1, n2)
	b.Custom("n4", graph.OpConv, 3, 1<<18, 1, 1, 1, 1, in, n3)
	g := b.MustFinalize()
	ev, err := New(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c := ev.Subgraph(g.ComputeNodes()); c.Err == nil {
		t.Fatal("the wrapped-rates chain produced an error-free cost")
	}
	if n := ev.CacheEntries(); n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}
	snap, err := ev.ExportCache()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) != 0 {
		t.Errorf("snapshot exported %d error entries, want 0", len(snap.Entries))
	}
}

// TestLoadCacheRejectsMalformedRecords: records with key windows outside
// the arena, non-id-aligned lengths, unsorted members, or out-of-range ids
// reject the load with an error, never a panic or a silent bad insert.
func TestLoadCacheRejectsMalformedRecords(t *testing.T) {
	g, ids := toy(t)
	ev := testEvaluator(t, g)
	fp := ev.CacheFingerprint()
	key := partition.AppendMemberKey(nil, []int{ids[1], ids[2]})

	cases := []struct {
		name string
		snap *CacheSnapshot
	}{
		{"window past arena", &CacheSnapshot{Fingerprint: fp, Arena: key,
			Entries: []CacheRecord{{Off: 4, KeyLen: uint32(len(key))}}}},
		{"zero-length key", &CacheSnapshot{Fingerprint: fp, Arena: key,
			Entries: []CacheRecord{{Off: 0, KeyLen: 0}}}},
		{"unaligned key", &CacheSnapshot{Fingerprint: fp, Arena: key,
			Entries: []CacheRecord{{Off: 0, KeyLen: 6}}}},
		{"descending members", &CacheSnapshot{Fingerprint: fp,
			Arena:   partition.AppendMemberKey(nil, []int{ids[2], ids[1]}),
			Entries: []CacheRecord{{Off: 0, KeyLen: 8}}}},
		{"id outside graph", &CacheSnapshot{Fingerprint: fp,
			Arena:   partition.AppendMemberKey(nil, []int{g.Len() + 5}),
			Entries: []CacheRecord{{Off: 0, KeyLen: 4}}}},
	}
	for _, tc := range cases {
		if _, err := ev.LoadCache(tc.snap); err == nil {
			t.Errorf("%s: load accepted a malformed record", tc.name)
		}
	}
	if n := ev.CacheEntries(); n != 0 {
		t.Errorf("malformed loads left %d entries behind", n)
	}
}

// TestLoadCacheRederivesSample: of 40 records, LoadCache re-derives
// records 0, 3, 6, ..., 39 (every ⌈40/16⌉ = 3rd). A change to any field of
// a sampled record refuses the whole load, which then adds nothing; a
// change to a record outside the sample loads.
func TestLoadCacheRederivesSample(t *testing.T) {
	g := models.MustBuild("vgg16")
	src, err := New(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var snap *CacheSnapshot
	for i := 1; i+1 < g.Len() && (snap == nil || len(snap.Entries) < 40); i++ {
		src.Subgraph([]int{i})
		src.Subgraph([]int{i, i + 1})
		if snap, err = src.ExportCache(); err != nil {
			t.Fatal(err)
		}
	}
	if len(snap.Entries) < 40 {
		t.Fatalf("fixture has %d records, want 40", len(snap.Entries))
	}
	snap.Entries = snap.Entries[:40]
	fields := []func(*CacheRecord) *int64{
		func(r *CacheRecord) *int64 { return &r.WeightBytes },
		func(r *CacheRecord) *int64 { return &r.InBytes },
		func(r *CacheRecord) *int64 { return &r.OutBytes },
		func(r *CacheRecord) *int64 { return &r.ActFootprint },
		func(r *CacheRecord) *int64 { return &r.MACs },
		func(r *CacheRecord) *int64 { return &r.ComputeCycles },
		func(r *CacheRecord) *int64 { return &r.GLBAccessBytes },
	}
	load := func(i, f int) (int, error) {
		edited := *snap
		edited.Entries = append([]CacheRecord(nil), snap.Entries...)
		*fields[f](&edited.Entries[i])++
		dst, err := New(g, hw.DefaultPlatform(), tiling.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		added, err := dst.LoadCache(&edited)
		if dst.CacheEntries() != int64(added) {
			t.Errorf("record %d field %d: %d entries cached, %d reported added", i, f, dst.CacheEntries(), added)
		}
		return added, err
	}
	for f := range fields {
		for _, i := range []int{0, 3, 39} {
			if added, err := load(i, f); err == nil || added != 0 || !strings.Contains(err.Error(), fmt.Sprintf("entry %d: stored cost", i)) {
				t.Errorf("sampled record %d, field %d changed: added %d, err %v", i, f, added, err)
			}
		}
		if added, err := load(1, f); err != nil || added != 40 {
			t.Errorf("unsampled record 1, field %d changed: added %d, err %v; records outside the sample are trusted", f, added, err)
		}
	}
}

// TestLoadCacheConcurrentWithSearch loads a snapshot while worker
// goroutines hammer the same cache — the race-gated half of the keep-first
// contract: loads are ordinary inserts, so racing them against lookups and
// cold misses must stay value-consistent (and clean under -race).
func TestLoadCacheConcurrentWithSearch(t *testing.T) {
	g, ids := toy(t)
	src := testEvaluator(t, g)
	subs := [][]int{
		{ids[1]}, {ids[2]}, {ids[3]},
		{ids[1], ids[2]}, {ids[2], ids[3]}, {ids[1], ids[2], ids[3]},
	}
	for _, s := range subs {
		src.Subgraph(s)
	}
	snap, err := src.ExportCache()
	if err != nil {
		t.Fatal(err)
	}

	dst := testEvaluator(t, g)
	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			<-start
			for r := 0; r < 200; r++ {
				dst.Subgraph(subs[rng.Intn(len(subs))])
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if _, err := dst.LoadCache(snap); err != nil {
			t.Error(err)
		}
	}()
	close(start)
	wg.Wait()

	// Every key resolves to the same values the source computed.
	for _, s := range subs {
		if got, want := dst.Subgraph(s), src.Subgraph(s); got.EMABytes() != want.EMABytes() ||
			got.ComputeCycles != want.ComputeCycles {
			t.Errorf("subgraph %v: post-race cost differs", s)
		}
	}
	if n, want := dst.CacheEntries(), int64(len(subs)); n != want {
		t.Errorf("cache holds %d entries, want %d", n, want)
	}
}
