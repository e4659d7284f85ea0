package dist

import (
	"fmt"
	"runtime"
	"testing"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/search"
)

// BenchmarkDistFleet prices the fleet against the in-process ring: the same
// 4-GA-island resnet50 search (population 50, 200 samples per island,
// MigrateEvery 5) run in this process, then across 1, 2 and 4 real worker
// processes. Every process is pinned to one CPU — this one by GOMAXPROCS(1)
// in each row (the testing package resets it per sub-benchmark), the
// workers by spawnWorkerProc — because the in-process ring would otherwise
// overlap its islands across cores and hide exactly the axis measured, so
// process count is the scaling axis. Each process keeps one evaluator for
// the whole run, so after the first search every contender scores against
// a warm cost cache alike.
//
// Each fleet row reports x-vs-inprocess. The 4-process fleet must reach
// 1.8× the in-process ring on hosts with at least 4 CPUs; a host with fewer
// cannot express the scaling (its processes time-share, so the protocol
// only adds serialization), and a single iteration (-benchtime=1x) is too
// noisy to judge, so the floor is checked only when both hold.
func BenchmarkDistFleet(b *testing.B) {
	const (
		model         = "resnet50"
		islands       = 4
		samples       = 200
		minCPUs       = 4
		floorAt4Procs = 1.8
	)
	opt := search.Options{
		Core: core.Options{
			Seed: 7, Workers: 1, Population: 50, MaxSamples: samples,
			Objective: eval.Objective{Metric: eval.MetricEMA},
			Mem:       core.MemSearch{Fixed: fixedMem()},
		},
		Islands:      islands,
		MigrateEvery: 5,
	}
	ev := evaluatorFor(b, model)
	// row times b.N searches on one CPU, reports samples/s, and returns the
	// seconds per search.
	row := func(b *testing.B, op func() error) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		perOp := b.Elapsed().Seconds() / float64(b.N)
		b.ReportMetric(islands*samples/perOp, "samples/s")
		return perOp
	}

	var inproc float64
	b.Run("inprocess", func(b *testing.B) {
		inproc = row(b, func() error {
			_, _, err := search.Run(ev, opt)
			return err
		})
	})
	for _, k := range []int{1, 2, 4} {
		dir := b.TempDir()
		addrs := make([]string, k)
		for i := range addrs {
			addrs[i], _ = spawnWorkerProc(b, model, dir, i)
		}
		b.Run(fmt.Sprintf("procs=%d", k), func(b *testing.B) {
			x := inproc / row(b, func() error {
				_, _, err := Run(ev, Options{Search: opt, Workers: addrs})
				return err
			})
			b.ReportMetric(x, "x-vs-inprocess")
			if k != 4 {
				return
			}
			switch {
			case runtime.NumCPU() < minCPUs:
				if b.N == 1 { // once: the first run of a timed benchmark is b.N == 1
					b.Logf("%.1fx floor not checked: %d-CPU host (checked at >= %d CPUs)",
						floorAt4Procs, runtime.NumCPU(), minCPUs)
				}
			case b.N > 1 && x < floorAt4Procs:
				b.Errorf("4-process fleet at %.2fx the in-process ring, want >= %.1fx on a %d-CPU host",
					x, floorAt4Procs, runtime.NumCPU())
			}
		})
	}
}
