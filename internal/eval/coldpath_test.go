package eval

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"cocco/internal/graph"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/tiling"
)

// windows enumerates the contiguous compute-node windows of a chain-shaped
// model: every [i, j) slice of the topological compute order. On a pure
// chain (vgg16) each window is a connected subgraph, and all windows are
// pairwise distinct member sets — a supply of cold keys for alloc pins and
// race stress.
func windows(g *graph.Graph) [][]int {
	ids := g.ComputeIDs()
	var out [][]int
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j <= len(ids); j++ {
			out = append(out, append([]int(nil), ids[i:j]...))
		}
	}
	return out
}

// TestNewGraphContextAllocs pins a context's construction to its own tables:
// the struct, two empty registries, and four per-node tables, 7 allocations
// with go1.24. Per-goroutine tiling scratch is built by each evaluator's
// pool on first use, so a Deriver built here (17 allocations for resnet50)
// would be thrown away.
func TestNewGraphContextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins describe the build without the race detector")
	}
	for _, name := range []string{"resnet50", "googlenet"} {
		g := models.MustBuild(name)
		if got := testing.AllocsPerRun(20, func() { NewGraphContext(g, tiling.DefaultConfig()) }); got > 8 {
			t.Errorf("NewGraphContext(%s) allocates %.0f times, want at most 8", name, got)
		}
	}
}

// TestNewEvaluatorAllocs pins what a DSE sweep's second and later configs
// pay for their evaluators: from a warm context, NewEvaluator allocates only
// the Evaluator and its scratch constructor, a constant whatever the model's
// size, because the cycle table and the cost cache are memoized on the
// context per core geometry. With go1.24 that is 2 allocations and 312 B on
// every zoo model, where eval.New, building a context each time, takes 13
// allocations and 8–21 KB, growing with the node count.
func TestNewEvaluatorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins describe the build without the race detector")
	}
	p := hw.DefaultPlatform()
	var first string
	var firstBytes uint64
	for _, name := range models.Names() {
		gc := NewGraphContext(models.MustBuild(name), tiling.DefaultConfig())
		newEvaluator := func() { gc.MustNewEvaluator(p) }
		newEvaluator() // warm the context's cycle table and cache registry
		if got := testing.AllocsPerRun(100, newEvaluator); got > 2 {
			t.Errorf("%s: warm NewEvaluator allocates %.0f times, want at most 2", name, got)
		}
		bytes := bytesPerRun(100, newEvaluator)
		if first == "" {
			first, firstBytes = name, bytes
		} else if bytes != firstBytes {
			t.Errorf("%s: warm NewEvaluator allocates %d B, %s %d B; want the same on every model", name, bytes, first, firstBytes)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for heap bytes: the average bytes f
// allocates over runs calls, after one warm-up call, on one CPU.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestColdPathAllocs pins the tentpole contract: a steady-state cold
// evaluation (distinct member set, full computeSubgraph + tiling derivation
// + cache insert) performs at most a small constant number of allocations
// once the scratch pools are warm. The budget covers the SubgraphCost, its
// owned member slice, the interned key string, and amortized cache growth.
func TestColdPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector disables sync.Pool reuse; alloc pins are meaningless")
	}
	g := models.MustBuild("vgg16")
	ev := testEvaluator(t, g)
	subs := windows(g)
	if len(subs) < 110 {
		t.Fatalf("only %d windows; need more distinct cold subgraphs", len(subs))
	}
	// Warm the scratch pools (deriver adj buffers, marks) on a few windows
	// computed by a second evaluator so ev's cache stays cold for them... the
	// pool is per-evaluator, so warm ev itself on the last few windows.
	for _, m := range subs[len(subs)-8:] {
		ev.Subgraph(m)
	}
	subs = subs[:len(subs)-8]
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		c := ev.Subgraph(subs[i%len(subs)])
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		i++
	})
	if allocs > 8 {
		t.Errorf("cold path allocates %.1f per subgraph, want <= 8", allocs)
	}

	// And the warm path (same member sets, now cached) must be allocation
	// free: the sort + key build happen entirely in pooled scratch.
	i = 0
	warm := testing.AllocsPerRun(100, func() {
		ev.Subgraph(subs[i%len(subs)])
		i++
	})
	if warm != 0 {
		t.Errorf("warm Subgraph allocates %.1f, want 0", warm)
	}
}

// TestColdMissRaceKeepsFirst pins the duplicate-compute race fix: goroutines
// missing concurrently on the same cold key may each compute the cost, but
// the insert re-checks under the write lock and keeps the first inserted
// *SubgraphCost — every caller must observe the SAME pointer, because delta
// handles cache these pointers and entry identity must be stable.
func TestColdMissRaceKeepsFirst(t *testing.T) {
	g := models.MustBuild("vgg16")
	subs := windows(g)
	const goroutines = 16
	for round := 0; round < 20; round++ {
		ev := testEvaluator(t, g) // fresh cache: every key cold
		got := make([][]*SubgraphCost, goroutines)
		var start, wg sync.WaitGroup
		start.Add(1)
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				start.Wait()
				res := make([]*SubgraphCost, len(subs))
				for i, m := range subs {
					res[i] = ev.Subgraph(m)
				}
				got[w] = res
			}(w)
		}
		start.Done()
		wg.Wait()
		for w := 1; w < goroutines; w++ {
			for i := range subs {
				if got[w][i] != got[0][i] {
					t.Fatalf("round %d: goroutine %d got a different *SubgraphCost for window %d", round, w, i)
				}
			}
		}
		if entries := ev.CacheEntries(); entries != int64(len(subs)) {
			t.Fatalf("round %d: %d cache entries, want %d (duplicate insert?)", round, entries, len(subs))
		}
	}
}

// TestColdStressDisjoint hammers one evaluator from 16 goroutines with
// DISJOINT cold member sets — no shared keys, so every goroutine drives the
// full cold path (scratch pool, deriver, shard insert incl. map growth)
// concurrently. Run under -race in CI; the assertions here check pointer
// stability across growth.
func TestColdStressDisjoint(t *testing.T) {
	g := models.MustBuild("resnet152")
	ev := testEvaluator(t, g)
	ids := g.ComputeIDs()
	const goroutines = 16
	// Partition the singleton + pair key space among goroutines.
	perG := make([][][]int, goroutines)
	for i := 0; i < len(ids); i++ {
		w := i % goroutines
		perG[w] = append(perG[w], []int{ids[i]})
		if i+1 < len(ids) {
			perG[w] = append(perG[w], []int{ids[i], ids[i+1]})
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			first := make([]*SubgraphCost, len(perG[w]))
			for round := 0; round < 8; round++ {
				for i, m := range perG[w] {
					c := ev.Subgraph(m)
					if round == 0 {
						first[i] = c
						continue
					}
					if c != first[i] {
						errs[w] = fmt.Errorf("goroutine %d: pointer for set %v changed across rounds", w, m)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	want := int64(len(ids) + len(ids) - 1)
	if entries := ev.CacheEntries(); entries != want {
		t.Fatalf("%d cache entries, want %d", entries, want)
	}
}
