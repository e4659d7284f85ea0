package eval_test

import (
	"math/rand"
	"testing"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/partition"
	"cocco/internal/testutil"
	"cocco/internal/tiling"
)

// This file is an independent witness for the table-sum half of eval's
// cost model: a naive reference, written with maps and read straight off
// the graph's nodes and producer lists — no Marks, per-node tables, caches,
// or Deriver — that classifies a member set's tensors the way a
// tensor-level subgraph evaluator does and sums the same quantities.
// Footprints are witnessed separately, by internal/exec.

// refProblem is the graph as a tensor-level evaluator sees it: every node
// is an op producing one tensor (named by the node id) from the tensors of
// its producers.
type refProblem struct {
	g         *graph.Graph
	inputs    map[int][]int // op → the tensors it reads, one per edge
	consumers map[int][]int // tensor → the ops reading it
}

func newRefProblem(g *graph.Graph) *refProblem {
	p := &refProblem{g: g, inputs: map[int][]int{}, consumers: map[int][]int{}}
	for _, n := range g.Nodes() {
		for _, t := range g.PredIDs(n.ID) {
			p.inputs[n.ID] = append(p.inputs[n.ID], int(t))
			p.consumers[int(t)] = append(p.consumers[int(t)], n.ID)
		}
	}
	return p
}

// refCost holds the reference's sums for one member set.
type refCost struct {
	weight, in, out, macs, glb int64
}

// cost classifies the tensors of the member set and sums its costs:
//   - boundary inputs (read in the set, produced outside it) load once;
//   - boundary outputs (produced in the set and read outside it, or model
//     outputs) store once;
//   - every other produced tensor is ephemeral and never leaves the chip.
//
// A tensor read both inside and outside the set is a boundary output here,
// as in eval; a tiling evaluator that calls every tensor read inside its
// set ephemeral would not store it (DESIGN.md, "Substitutions").
//
// Global-buffer traffic writes every loaded or produced tensor once and
// reads each input of each op ceil(F/s) times per spatial dimension.
func (p *refProblem) cost(members []int) refCost {
	inSet := map[int]bool{}
	for _, op := range members {
		inSet[op] = true
	}
	boundaryIn := map[int]bool{}
	boundaryOut := map[int]bool{}
	ephemeral := map[int]bool{}
	for _, op := range members {
		for _, t := range p.inputs[op] {
			if !inSet[t] {
				boundaryIn[t] = true
			}
		}
		readOutside := len(p.consumers[op]) == 0
		for _, c := range p.consumers[op] {
			if !inSet[c] {
				readOutside = true
			}
		}
		if readOutside {
			boundaryOut[op] = true
		} else {
			ephemeral[op] = true
		}
	}

	bytes := func(t int) int64 { return p.g.Node(t).OutBytes() }
	var c refCost
	for t := range boundaryIn {
		c.in += bytes(t)
	}
	for t := range boundaryOut {
		c.out += bytes(t)
	}
	c.glb = c.in
	for t := range boundaryOut {
		c.glb += bytes(t)
	}
	for t := range ephemeral {
		c.glb += bytes(t)
	}
	for _, op := range members {
		n := p.g.Node(op)
		c.weight += n.WeightBytes()
		c.macs += n.MACs()
		windows := int64((n.KernelH+n.StrideH-1)/n.StrideH) * int64((n.KernelW+n.StrideW-1)/n.StrideW)
		for _, t := range p.inputs[op] {
			c.glb += bytes(t) * windows
		}
	}
	return c
}

// emaBytes is the reference's partition-level EMA: each subgraph's weights
// once, its boundary activations once per sample.
func (p *refProblem) emaBytes(part *partition.Partition, batch int64) int64 {
	var ema int64
	for _, members := range part.Subgraphs() {
		c := p.cost(members)
		ema += c.weight + (c.in+c.out)*batch
	}
	return ema
}

// witnessGraph compares the reference with eval on sets random connected
// member sets of g, and on as many random partitions at batch 1 and 4. A
// set or partition with a subgraph whose tiling derivation fails is redrawn:
// eval prices such a subgraph at zero and never lets it fit, so the witness
// checks only that it does not fit. It returns the number of sets and
// partitions compared, and of underivable draws redrawn.
func witnessGraph(t *testing.T, g *graph.Graph, seed int64, sets, maxSize int) (nsets, nparts, redrawn int) {
	t.Helper()
	gc := eval.NewGraphContext(g, tiling.DefaultConfig())
	evs := map[int64]*eval.Evaluator{}
	for _, batch := range []int64{1, 4} {
		pl := hw.DefaultPlatform()
		pl.Batch = int(batch)
		evs[batch] = gc.MustNewEvaluator(pl)
	}
	huge := hw.MemConfig{Kind: hw.SharedBuffer, GlobalBytes: 1 << 50}
	derivable := func(members []int) bool {
		c := evs[1].Subgraph(members)
		if c.Err != nil && evs[1].Fits(c, huge) {
			t.Fatalf("%s: set %v fits despite %v", g.Name, members, c.Err)
		}
		return c.Err == nil
	}
	ref := newRefProblem(g)
	rng := rand.New(rand.NewSource(seed))
	for nsets < sets {
		members := testutil.RandomConnectedSubgraph(rng, g, maxSize)
		if !derivable(members) {
			redrawn++
			continue
		}
		got, want := evs[1].Subgraph(members), ref.cost(members)
		if have := (refCost{got.WeightBytes, got.InBytes, got.OutBytes, got.MACs, got.GLBAccessBytes}); have != want {
			t.Fatalf("%s: set %v: eval (weight, in, out, macs, glb) = %+v, reference %+v", g.Name, members, have, want)
		}
		nsets++
	}
	for nparts < sets {
		part := core.RandomPartition(g, rng, 0.1+0.8*rng.Float64())
		ok := true
		for _, members := range part.Subgraphs() {
			ok = ok && derivable(members)
		}
		if !ok {
			redrawn++
			continue
		}
		for batch, ev := range evs {
			if got, want := ev.Partition(part, huge).EMABytes, ref.emaBytes(part, batch); got != want {
				t.Fatalf("%s: partition %v at batch %d: eval EMA %d, reference %d", g.Name, part.Assignment(), batch, got, want)
			}
		}
		nparts++
	}
	if redrawn > 4*sets {
		t.Fatalf("%s: %d underivable draws for %d sets and %d partitions", g.Name, redrawn, sets, sets)
	}
	return nsets, nparts, redrawn
}

// TestWitnessTableSums: on every zoo model and on random DAGs, eval's
// per-subgraph weight, input, output, MAC and global-buffer sums, and its
// partition-level EMA at batch 1 and 4, equal the naive reference's.
func TestWitnessTableSums(t *testing.T) {
	const (
		zooSets = 200
		dags    = 200
		dagSets = 20
	)
	var sets, parts, zooRedrawn int
	for i, name := range models.Names() {
		g, err := models.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		s, p, r := witnessGraph(t, g, int64(i), zooSets, 16)
		sets, parts, zooRedrawn = sets+s, parts+p, zooRedrawn+r
	}
	if want := 12 * zooSets; sets != want || parts != want {
		t.Fatalf("zoo: compared %d sets and %d partitions, want %d of each", sets, parts, want)
	}
	sets, parts = 0, 0
	dagRedrawn := 0
	for i := 0; i < dags; i++ {
		g := testutil.RandomDAG(int64(5000+i), 6+(i*7)%40, testutil.DAGOpts{
			Layers:   2 + i%7,
			PJoin:    float64(i%4) * 0.15,
			PSkip:    float64(i%3) * 0.2,
			MaxFanIn: 1 + i%3,
		})
		s, p, r := witnessGraph(t, g, int64(i), dagSets, 8)
		sets, parts, dagRedrawn = sets+s, parts+p, dagRedrawn+r
	}
	if want := dags * dagSets; sets != want || parts != want {
		t.Fatalf("random DAGs: compared %d sets and %d partitions, want %d of each", sets, parts, want)
	}
	t.Logf("compared %d zoo and %d random-DAG member sets and as many partitions; redrew %d and %d underivable draws",
		12*zooSets, dags*dagSets, zooRedrawn, dagRedrawn)
}
