// Package exec simulates the subgraph elementary operations of the paper's
// execution scheme step by step (Figure 6) and validates the derived scheme
// against three runtime invariants:
//
//  1. Alignment (stage-3): in steady state every node advances exactly
//     upd_num·Δ rows per elementary operation.
//  2. Allocation (stage-2): every consumer's atomic Δ-row update finds its
//     full convolution window resident in the producer's x-row allocation
//     (x(p) ≥ F_v + (Δ_v−1)·s_v on every internal edge — production within
//     an operation is row-granular and just-in-time, so this static bound
//     is exactly what full reuse requires; stage-2's LCM derivation meets
//     it with equality on critical edges).
//  3. Progress: production never regresses — nothing is recomputed.
//
// The first elementary operation is the pipeline-fill prologue: it
// materializes the nested backward windows (larger than the steady-state x
// for deep subgraphs), after which the sweep is uniform. The simulator works
// on the height dimension (the paper's 1D exposition); width obeys the same
// algebra by symmetry.
package exec

import (
	"fmt"
	"sort"

	"cocco/internal/graph"
	"cocco/internal/tiling"
)

// Update is one memory update of a node: rows [From, To) of the node's
// output become materialized (the paper's [m:n] ranges; To is exclusive).
type Update struct {
	Node     int
	From, To int64
}

// Rows is the number of rows the update materializes.
func (u Update) Rows() int64 { return u.To - u.From }

func (u Update) String() string { return fmt.Sprintf("n%d[%d:%d]", u.Node, u.From, u.To-1) }

// Op is one subgraph-level elementary operation.
type Op struct {
	Index int
	// Updates are the per-node advances, in topological node order.
	Updates []Update
}

// Snapshot is the resident range of every node after an operation: rows
// [From, To) are in the buffer.
type Snapshot map[int]Update

// Trace is a full simulation of a subgraph sweep.
type Trace struct {
	// Ops are the elementary operations in execution order; Ops[0] is the
	// pipeline-fill prologue.
	Ops []Op
	// Snapshots[i] is the buffer state after Ops[i]: each node's retained
	// window (at most its x allocation).
	Snapshots []Snapshot
	// PrologueRows maps node → rows materialized by the first operation
	// (the nested backward window).
	PrologueRows map[int]int64
}

// Simulate runs numOps elementary operations of the scheme and checks the
// package-level invariants, returning an error naming the first violation
// (which would indicate an incorrectly derived scheme).
func Simulate(g *graph.Graph, s *tiling.Scheme, numOps int) (*Trace, error) {
	if numOps < 1 {
		return nil, fmt.Errorf("exec: numOps must be >= 1")
	}
	ids := make([]int, 0, len(s.Nodes))
	for id := range s.Nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids) // ascending = topological

	internalConsumers := func(u int) []int {
		var out []int
		for _, c := range g.SuccIDs(u) {
			if cs, ok := s.Nodes[int(c)]; ok && !cs.External {
				out = append(out, int(c))
			}
		}
		return out
	}

	// Invariant 2 (static): every internal edge's consumer batch fits its
	// producer's allocation.
	for _, id := range ids {
		ns := s.Nodes[id]
		for _, c := range internalConsumers(id) {
			nc := g.Node(c)
			cs := s.Nodes[c]
			window := int64(nc.KernelH) + (cs.DeltaH-1)*int64(nc.StrideH)
			if ns.TileH < window {
				return nil, fmt.Errorf(
					"exec: edge %d->%d: consumer batch window %d exceeds producer allocation x=%d",
					id, c, window, ns.TileH)
			}
		}
	}

	produced := make(map[int]int64, len(ids))
	tr := &Trace{PrologueRows: map[int]int64{}}

	for op := 0; op < numOps; op++ {
		// Just-in-time targets, backward: outputs advance upd·Δ per op;
		// producers must cover their consumers' windows.
		target := make(map[int]int64, len(ids))
		for i := len(ids) - 1; i >= 0; i-- {
			id := ids[i]
			ns := s.Nodes[id]
			// A node's own schedule: (op+1)·upd·Δ rows.
			t := int64(op+1) * ns.UpdH * ns.DeltaH
			for _, c := range internalConsumers(id) {
				nc := g.Node(c)
				need := int64(nc.KernelH) + (target[c]-1)*int64(nc.StrideH)
				if need > t {
					t = need
				}
			}
			target[id] = t
		}

		cur := Op{Index: op}
		for _, id := range ids {
			ns := s.Nodes[id]
			prev := produced[id]
			t := target[id]
			if t < prev {
				return nil, fmt.Errorf("exec: op %d: node %d target %d below produced %d (recomputation)",
					op, id, t, prev)
			}
			if op > 0 {
				// Invariant 1: uniform steady-state advance.
				if adv := t - prev; adv != ns.UpdH*ns.DeltaH {
					return nil, fmt.Errorf("exec: op %d: node %d advanced %d rows, want upd·Δ = %d",
						op, id, adv, ns.UpdH*ns.DeltaH)
				}
			}
			produced[id] = t
			cur.Updates = append(cur.Updates, Update{Node: id, From: prev, To: t})
			if op == 0 {
				tr.PrologueRows[id] = t
			}
		}
		tr.Ops = append(tr.Ops, cur)

		snap := Snapshot{}
		for _, id := range ids {
			ns := s.Nodes[id]
			to := produced[id]
			from := to - ns.TileH
			if from < 0 {
				from = 0
			}
			snap[id] = Update{Node: id, From: from, To: to}
		}
		tr.Snapshots = append(tr.Snapshots, snap)
	}
	return tr, nil
}

// OpsToCover returns the number of elementary operations needed for node id
// to materialize its full output height under the scheme.
func OpsToCover(g *graph.Graph, s *tiling.Scheme, id int) int64 {
	ns := s.Nodes[id]
	per := ns.UpdH * ns.DeltaH
	if per <= 0 {
		return 0
	}
	h := int64(g.Node(id).OutH)
	return (h + per - 1) / per
}

// FormatSnapshot renders a snapshot in the paper's Figure 6 notation.
func FormatSnapshot(g *graph.Graph, s *tiling.Scheme, snap Snapshot) string {
	ids := make([]int, 0, len(snap))
	for id := range snap {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := ""
	for _, id := range ids {
		u := snap[id]
		out += fmt.Sprintf("%s size=%d [%d:%d]  ", g.Node(id).Name, s.Nodes[id].TileH, u.From, u.To-1)
	}
	return out
}
