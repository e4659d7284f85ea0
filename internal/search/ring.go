package search

import (
	"fmt"
	"runtime"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/serialize"
)

// splitWorkers divides a scoring-goroutine budget across ring slots: every
// slot gets total/ring workers, the remainder goes to the first slots one
// worker each, and no slot drops below one. Worker counts never change
// results anywhere in the stack, so the split is purely a throughput
// decision — but dropping the remainder (the old behavior) left up to
// ring-1 goroutines idle on every round.
func splitWorkers(total, ring int) []int {
	if total <= 0 {
		total = runtime.NumCPU()
	}
	out := make([]int, ring)
	per, rem := total/ring, total%ring
	for i := range out {
		out[i] = per
		if i < rem {
			out[i]++
		}
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

// RingHost builds and drives a contiguous slice [lo,hi) of the migration
// ring. An in-process search drives a RingHost over the whole ring; a
// distributed worker process (internal/search/dist) is a RingHost over
// its assigned slice. Both construct islands from the same Options with the
// same ChildSeedStream-derived seeds per global ring index, which is what
// makes any worker partitioning replay the single-process trajectory.
//
// The host's methods index local islands 0..hi-lo-1 except Immigrate, which
// takes a global ring index — migration wiring is the caller's job and is
// expressed in ring coordinates.
type RingHost struct {
	ev      *eval.Evaluator
	opt     Options // normalized by WithDefaults
	lo, hi  int
	islands []island
}

// NewRingHost constructs the islands for global ring indices [lo,hi), once
// Options.Validate admits opt. opt.Core.Workers is this process's
// scoring-goroutine budget; it is split across the hosted islands only (a
// remote slice of the ring spends its own machine's CPUs, not a share of
// the coordinator's).
func NewRingHost(ev *eval.Evaluator, opt Options, lo, hi int) (*RingHost, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.WithDefaults()
	ring := opt.Islands + len(opt.Scouts)
	if lo < 0 || hi > ring || lo >= hi {
		return nil, fmt.Errorf("search: ring slice [%d,%d) invalid for a %d-island ring", lo, hi, ring)
	}
	h := &RingHost{ev: ev, opt: opt, lo: lo, hi: hi}
	seed := opt.Core.Seed
	workers := splitWorkers(opt.Core.Workers, hi-lo)
	for idx := lo; idx < hi; idx++ {
		var isl island
		var err error
		if idx < opt.Islands {
			iopt := opt.Core
			iopt.Workers = workers[idx-lo]
			if idx > 0 {
				iopt.Seed = core.ChildSeedStream(seed, core.StreamIslands, idx)
				// Only island 0 honors Init seeding and Trace, so multi-island
				// runs neither replay seeds K times nor interleave trace streams.
				iopt.Init = nil
				iopt.Trace = nil
			}
			isl, err = newGAIsland(ev, iopt, seed, idx)
		} else {
			isl, err = newScout(ev, opt, opt.Scouts[idx-opt.Islands], seed, idx)
		}
		if err != nil {
			return nil, err
		}
		h.islands = append(h.islands, isl)
	}
	return h, nil
}

// Options returns the normalized options the host was built with.
func (h *RingHost) Options() Options { return h.opt }

// Step advances every hosted island by up to gens optimizer steps in
// parallel and reports, per local island, whether any work was done.
func (h *RingHost) Step(gens int) []bool {
	n := len(h.islands)
	progressed := make([]bool, n)
	core.ParallelFor(n, n, func(i int) {
		progressed[i] = h.islands[i].step(gens)
	})
	return progressed
}

// Done reports, per local island, whether its budget is exhausted.
func (h *RingHost) Done() []bool {
	out := make([]bool, len(h.islands))
	for i, isl := range h.islands {
		out[i] = isl.done()
	}
	return out
}

// Emigrants selects every hosted island's migrants, in ascending ring
// order, without committing anything — the caller holds the barrier and
// must collect ALL islands' emigrants (across every host) before the first
// Immigrate, so selection sees only pre-barrier populations.
func (h *RingHost) Emigrants() [][]*core.Genome {
	out := make([][]*core.Genome, len(h.islands))
	for i, isl := range h.islands {
		out[i] = isl.emigrants(h.opt.Migrants)
	}
	return out
}

// Immigrate commits migrants into the island at the given global ring
// index, which must be hosted here.
func (h *RingHost) Immigrate(globalIdx int, gs []*core.Genome) error {
	if globalIdx < h.lo || globalIdx >= h.hi {
		return fmt.Errorf("search: immigrate to island %d outside hosted slice [%d,%d)", globalIdx, h.lo, h.hi)
	}
	h.islands[globalIdx-h.lo].immigrate(gs)
	return nil
}

// Bests returns every hosted island's best feasible genome (nil entries for
// islands with none yet), in ring order.
func (h *RingHost) Bests() []*core.Genome {
	out := make([]*core.Genome, len(h.islands))
	for i, isl := range h.islands {
		out[i] = isl.best()
	}
	return out
}

// Stats returns every hosted island's statistics contribution, in ring order.
func (h *RingHost) Stats() []core.Stats {
	out := make([]core.Stats, len(h.islands))
	for i, isl := range h.islands {
		out[i] = isl.stats()
	}
	return out
}

// Snapshots serializes every hosted island, in ring order. Only meaningful
// at a migration barrier, when the islands are quiescent.
func (h *RingHost) Snapshots() []serialize.IslandJSON {
	out := make([]serialize.IslandJSON, len(h.islands))
	for i, isl := range h.islands {
		out[i] = isl.snapshot()
	}
	return out
}

// Restore loads one snapshot per hosted island, in ring order. A negative
// sample count is refused: it would hand a GA island or an SA chain more
// than its budget.
func (h *RingHost) Restore(js []serialize.IslandJSON) error {
	if len(js) != len(h.islands) {
		return fmt.Errorf("search: restore got %d island snapshots for %d hosted islands", len(js), len(h.islands))
	}
	for i, isl := range h.islands {
		if js[i].Samples < 0 {
			return fmt.Errorf("search: island %d: samples %d is negative", h.lo+i, js[i].Samples)
		}
		if err := isl.restore(js[i]); err != nil {
			return err
		}
	}
	return nil
}
