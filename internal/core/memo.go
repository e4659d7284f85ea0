package core

// The genome memo. Tournament selection plus elitism re-submit identical
// candidates constantly (the elite clone every generation, un-mutated parent
// clones ~1-in-6 offspring with the default rates), and each one used to pay
// a full repair + evaluation. The memo identifies a candidate by hashing its
// partition assignment and memory configuration directly — no key bytes are
// ever materialized — and verifies hash matches by exact assignment/config
// comparison, so lookups are allocation-free and collisions are impossible
// by construction. A hit replays the committed result of the first
// occurrence, sharing its (fully evaluated, afterwards read-only) partition.
//
// The memo is exact, not approximate: an entry is stored only when a fresh
// evaluation of the same (partition, mem) pair is provably bit-identical to
// the stored one — the evaluation is deterministic unless the in-situ split
// repair actually fired (the only RNG consumer in scoring), so a genome is
// memoized iff repair left its partition untouched and feasible (or repair
// is disabled entirely). Searches with the memo on are therefore
// bit-identical to searches with it off (TestGenomeMemoEquivalence), and
// Options.DisableGenomeMemo exists only for ablation/benchmarks.
//
// Concurrency: lookups, duplicate linking, and replays all happen in the
// optimizer's serial phases (cheap, since partition hashes are cached by the
// operator pipeline), and the shard maps are only mutated in the ordered
// commit loop — so memo decisions are pure functions of candidate-generation
// order, identical for every Workers count.
//
// The memo is per-process: OptimizerState does not carry it, so a restored
// optimizer starts with an empty memo and refills it as it runs. Its
// trajectory is unchanged; only Stats.MemoHits can fall short of the
// uninterrupted run's.

import "cocco/internal/partition"

const (
	memoShardBits = 6
	memoShards    = 1 << memoShardBits
	// memoShardCap bounds each shard; a shard exceeding it is reset (commit
	// order is deterministic, so eviction is too). ~32k genomes total keeps
	// the memo a few MB even on the paper's 400k-sample budgets.
	memoShardCap = 512
)

// genomeMemo is the sharded candidate→result table, keyed by assignment hash
// with exact verification against the stored genome. Hit accounting lives in
// Stats.MemoHits.
type genomeMemo struct {
	shards [memoShards]map[uint64][]*Genome
}

func newGenomeMemo() *genomeMemo { return &genomeMemo{} }

// memoHash folds the candidate's partition content hash and memory
// configuration into the memo discriminator. The partition half is cached on
// the partition itself (precomputed by the operator pipeline, inherited by
// clones — so un-mutated duplicates hash in O(1)); matches are verified
// exactly, so the hash only needs to discriminate, never to identify.
// Allocation-free and a pure function of the candidate; safe from the
// parallel phase (each candidate owns its partition).
func memoHash(c candidate) uint64 {
	const prime = 1099511628211
	h := c.p.AssignHash()
	h = (h ^ uint64(c.mem.Kind)) * prime
	h = (h ^ uint64(c.mem.GlobalBytes)) * prime
	h = (h ^ uint64(c.mem.WeightBytes)) * prime
	return h
}

// sameCandidate reports whether the candidate matches the stored genome's
// pre-repair identity exactly (entries only exist for genomes whose partition
// the scoring left untouched, so g.P is the candidate partition of the first
// occurrence).
func sameCandidate(c candidate, g *Genome) bool {
	if c.mem != g.Mem {
		return false
	}
	return samePartition(c.p, g.P)
}

func samePartition(a, b *partition.Partition) bool {
	if a.NumSubgraphs() != b.NumSubgraphs() {
		return false
	}
	n := a.Graph().Len()
	for id := 0; id < n; id++ {
		if a.Of(id) != b.Of(id) {
			return false
		}
	}
	return true
}

// get returns the committed genome stored for the candidate, or nil.
func (m *genomeMemo) get(h uint64, c candidate) *Genome {
	for _, g := range m.shards[h>>(64-memoShardBits)][h] {
		if sameCandidate(c, g) {
			return g
		}
	}
	return nil
}

// put stores a committed genome for the candidate, resetting the shard at
// the cap. Serial (commit loop) only.
func (m *genomeMemo) put(h uint64, c candidate, g *Genome) {
	s := h >> (64 - memoShardBits)
	if m.shards[s] == nil || len(m.shards[s]) >= memoShardCap {
		m.shards[s] = make(map[uint64][]*Genome, 64)
	}
	list := m.shards[s][h]
	for i, old := range list {
		if sameCandidate(c, old) {
			list[i] = g
			return
		}
	}
	m.shards[s][h] = append(list, g)
}

// memoizable reports whether g's scored result is a pure function of the
// candidate (so a later duplicate may replay it bit-identically): always when
// the in-situ split repair is disabled, otherwise only when repair left the
// candidate partition untouched and feasible — an infeasible or repaired
// genome's outcome depends on the per-sample repair RNG.
func (o *Optimizer) memoizable(g *Genome, c candidate) bool {
	if o.opt.DisableInSituSplit {
		return true
	}
	return g.P == c.p && g.Res.Feasible()
}

// memoHit materializes a stored genome for re-commit. The stored partition is
// shared, not cloned: evaluation only reads a partition, and the GA never
// mutates a committed genome's partition — offspring clone it before
// mutating, exactly as population genomes are reused by tournament selection.
func memoHit(g *Genome) *Genome {
	return &Genome{P: g.P, Mem: g.Mem, Cost: g.Cost, Res: g.Res}
}
