package eval

import (
	"fmt"
	"math"
	"sort"

	"cocco/internal/partition"
)

// Cost-cache snapshot/load: exporting the cache collects every error-free
// entry, sorts the entries by key and lays their keys out in one arena in
// that order, so a snapshot's bytes depend only on the set of cached
// subgraphs, never on which goroutine inserted what first. Loading one is a
// sequence of ordinary keep-first inserts. A loaded entry is
// indistinguishable from one the evaluator computed itself: *SubgraphCost
// pointers stay stable forever, delta handles keep working, and a search
// started from a snapshot is bit-identical to the same search run cold
// (entries change only WHEN costs are computed, never what they are).
//
// Snapshots are keyed by CacheFingerprint — (key-format version, graph
// name, tiling config, core geometry) — so a load against the wrong model
// or configuration fails loudly instead of silently serving foreign costs.
// The fingerprint deliberately excludes everything subgraph costing does
// not depend on (memory capacities, buffer kind, core count, batch): one
// snapshot warm-starts every sibling config of a DSE capacity sweep.
// Pre-geometry snapshots, whose fingerprints pinned the full platform, are
// rejected one layer down by the serialize codec's wire-format version
// before any fingerprint comparison happens.

// cacheKeyFormat versions the canonical member-key encoding the cache is
// keyed by (partition.MemberKey: 4-byte big-endian ids, ascending). Any
// change to that encoding must bump this, invalidating every snapshot
// written under the old format.
const cacheKeyFormat = 1

// CacheRecord is one subgraph cost in a CacheSnapshot: the key window into
// the snapshot arena plus every numeric field of the SubgraphCost. Members
// are not stored — they are exactly the decoded key bytes.
type CacheRecord struct {
	Off    uint32
	KeyLen uint32

	WeightBytes    int64
	InBytes        int64
	OutBytes       int64
	ActFootprint   int64
	MACs           int64
	ComputeCycles  int64
	GLBAccessBytes int64
}

// CacheSnapshot is the flat, serializable export of an evaluator's cost
// cache: one contiguous key arena and one record per cached subgraph.
// Entries whose tiling derivation failed (Err != nil) are not exported —
// recomputing them on demand reproduces the identical error, so omitting
// them cannot change results.
type CacheSnapshot struct {
	// Fingerprint identifies the (graph, tiling, core geometry, key format)
	// the costs are valid for; LoadCache refuses anything else.
	Fingerprint string
	Entries     []CacheRecord
	Arena       []byte
}

// CacheFingerprint identifies the configuration the shared cost cache's
// entries are valid for. Two evaluators share a fingerprint exactly when
// they were built for the same graph name, tiling config, and core geometry
// (hw.Core) — the only inputs subgraph costing depends on — under the same
// key-format version. Sibling DSE configs differing in memory capacities,
// buffer kind, core count, or batch share both the in-memory cache and its
// snapshots; a different core geometry is a different fingerprint.
func (e *Evaluator) CacheFingerprint() string {
	return fmt.Sprintf("keyfmt=%d graph=%q tiling=%s core=%+v",
		cacheKeyFormat, e.ctx.g.Name, e.ctx.tcfg, e.platform.Core)
}

// ExportCache snapshots every error-free cached subgraph cost in the SHARED
// cost cache — including entries computed by sibling evaluators of the same
// core geometry, so one export captures a whole DSE geometry group's warm
// state. Records and their key windows follow ascending key order, so two
// caches holding the same subgraphs export identical snapshots. It locks one
// shard at a time, so it is safe to call while other goroutines use the
// cache; entries inserted after their shard was visited are simply not in
// the snapshot (each entry is immutable once inserted, so every exported
// record is complete and correct).
func (e *Evaluator) ExportCache() (*CacheSnapshot, error) {
	type entry struct {
		key string
		c   *SubgraphCost
	}
	var all []entry
	for i := range e.cache.shards {
		s := &e.cache.shards[i]
		s.mu.Lock()
		for k, c := range s.m {
			if c.Err == nil {
				all = append(all, entry{k, c})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	snap := &CacheSnapshot{Fingerprint: e.CacheFingerprint(), Entries: make([]CacheRecord, 0, len(all))}
	for _, en := range all {
		off := len(snap.Arena)
		if int64(off)+int64(len(en.key)) > math.MaxUint32 {
			return nil, fmt.Errorf("eval: cache snapshot arena exceeds the 4 GiB uint32 offset range")
		}
		snap.Arena = append(snap.Arena, en.key...)
		c := en.c
		snap.Entries = append(snap.Entries, CacheRecord{
			Off:            uint32(off),
			KeyLen:         uint32(len(en.key)),
			WeightBytes:    c.WeightBytes,
			InBytes:        c.InBytes,
			OutBytes:       c.OutBytes,
			ActFootprint:   c.ActFootprint,
			MACs:           c.MACs,
			ComputeCycles:  c.ComputeCycles,
			GLBAccessBytes: c.GLBAccessBytes,
		})
	}
	return snap, nil
}

// LoadCache inserts every snapshot record the SHARED cache does not already
// hold, returning the number added — sibling evaluators of the same core
// geometry see the loaded entries immediately. Loads are keep-first: a key
// already present keeps its existing *SubgraphCost (pointer stability for
// delta handles), and concurrent Subgraph callers racing a load behave
// exactly as they do racing each other.
//
// The whole snapshot is checked before anything is inserted, so a refused
// load adds nothing. It must carry this evaluator's fingerprint; every
// record's key must be ascending member ids within the graph; and a fixed
// sample of the records, every ⌈n/16⌉-th from record 0, is re-derived on
// the cold path (without touching the cache or its counters) and must
// match in all seven fields, so a snapshot written under another cost model
// is refused. Records outside the sample are trusted.
func (e *Evaluator) LoadCache(snap *CacheSnapshot) (added int, err error) {
	if want := e.CacheFingerprint(); snap.Fingerprint != want {
		return 0, fmt.Errorf("eval: cache snapshot fingerprint mismatch:\n  have %s\n  want %s", snap.Fingerprint, want)
	}
	n := e.ctx.g.Len()
	stride := (len(snap.Entries) + loadSamples - 1) / loadSamples
	costs := make([]*SubgraphCost, len(snap.Entries))
	for i := range snap.Entries {
		r := &snap.Entries[i]
		end := int64(r.Off) + int64(r.KeyLen)
		if r.KeyLen == 0 || r.KeyLen%4 != 0 || end > int64(len(snap.Arena)) {
			return 0, fmt.Errorf("eval: cache snapshot entry %d: key window [%d:%d) invalid for %d-byte arena", i, r.Off, end, len(snap.Arena))
		}
		members := partition.AppendKeyMembers(make([]int, 0, r.KeyLen/4), string(snap.Arena[r.Off:end]))
		for j, id := range members {
			if id >= n || (j > 0 && id <= members[j-1]) {
				return 0, fmt.Errorf("eval: cache snapshot entry %d: member ids %v not ascending within graph of %d nodes", i, members, n)
			}
		}
		c := &SubgraphCost{
			Members:        members,
			WeightBytes:    r.WeightBytes,
			InBytes:        r.InBytes,
			OutBytes:       r.OutBytes,
			ActFootprint:   r.ActFootprint,
			MACs:           r.MACs,
			ComputeCycles:  r.ComputeCycles,
			GLBAccessBytes: r.GLBAccessBytes,
		}
		if i%stride == 0 {
			if err := e.rederive(c); err != nil {
				return 0, fmt.Errorf("eval: cache snapshot entry %d: %w", i, err)
			}
		}
		costs[i] = c
	}
	for i, c := range costs {
		r := &snap.Entries[i]
		key := snap.Arena[r.Off : int64(r.Off)+int64(r.KeyLen)]
		if stored, _ := keepFirst(e.cache, key, func() *SubgraphCost { return c }); stored == c {
			added++
		}
	}
	return added, nil
}

// loadSamples is the most records LoadCache re-derives from one snapshot.
const loadSamples = 16

// rederive computes c's subgraph on the cold path and reports a stored
// cost that differs from it.
func (e *Evaluator) rederive(c *SubgraphCost) error {
	sc := e.scratch.Get().(*evalScratch)
	d := e.computeSubgraph(sc, c.Members)
	e.scratch.Put(sc)
	if d.Err != nil {
		return fmt.Errorf("stored cost of subgraph %v no longer derives: %w", c.Members, d.Err)
	}
	if stored, want := costFields(c), costFields(d); stored != want {
		return fmt.Errorf("stored cost %v of subgraph %v, re-derived %v (written under another cost model?)", stored, c.Members, want)
	}
	return nil
}

// costFields lists the seven fields a snapshot record stores.
func costFields(c *SubgraphCost) [7]int64 {
	return [7]int64{c.WeightBytes, c.InBytes, c.OutBytes, c.ActFootprint, c.MACs, c.ComputeCycles, c.GLBAccessBytes}
}
