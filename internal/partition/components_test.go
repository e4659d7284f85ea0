package partition

import (
	"slices"
	"testing"

	"cocco/internal/graph"
	"cocco/internal/testutil"
)

// FuzzComponents checks graph.AppendComponent, the one connectivity walk
// behind repair, Validate and the exact baselines, against the retired map
// split (oracleComponents). The first byte seeds a testutil.RandomDAG, the
// second sizes it, and the rest is a bit mask picking a node subset, input
// nodes included. Walks start from each unvisited member in ascending
// order; their components, sorted, must equal the oracle's split, and each
// must be connected by the oracle's own test.
func FuzzComponents(f *testing.F) {
	f.Add([]byte{0, 12, 0xff, 0x0f})
	f.Add([]byte{7, 30, 0xaa, 0x55, 0x33, 0xcc})
	// Every compute node but not the input: branches meet only at joins,
	// which a walk must cross against the edges.
	f.Add([]byte{1, 20, 0xfe, 0xff, 0xff})
	f.Add([]byte{9, 24, 0xfe, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g := testutil.RandomDAG(int64(data[0]), 1+int(data[1])%48, testutil.DAGOpts{})
		mask := data[2:]
		in, seen := graph.NewMarks(g.Len()), graph.NewMarks(g.Len())
		set := map[int]bool{}
		var ids []int
		for id := 0; id < g.Len() && id/8 < len(mask); id++ {
			if mask[id/8]&(1<<(id%8)) != 0 {
				in.Set(id)
				set[id] = true
				ids = append(ids, id)
			}
		}
		var got [][]int
		var walk []int32
		for _, id := range ids {
			if seen.Has(id) {
				continue
			}
			walk = g.AppendComponent(walk[:0], id, in, seen)
			comp := make([]int, len(walk))
			for i, v := range walk {
				comp[i] = int(v)
			}
			slices.Sort(comp)
			got = append(got, comp)
		}
		want := oracleComponents(g, set)
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("components of %v: walk %v, oracle %v", ids, got, want)
		}
		for _, comp := range got {
			cs := map[int]bool{}
			for _, id := range comp {
				cs[id] = true
			}
			if n := len(oracleComponents(g, cs)); n != 1 {
				t.Fatalf("component %v splits into %d by the oracle", comp, n)
			}
		}
	})
}
