package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/search"
	"cocco/internal/search/dist"
	"cocco/internal/tiling"
)

// The distsearch workload measures the distributed island search: the same
// 4-island ring run in-process and across 1, 2, and 4 worker processes
// (spawned by re-executing this binary in -dist-worker mode). Every
// contender is pinned to ONE CPU per process (GOMAXPROCS=1 — the in-process
// baseline would otherwise overlap its islands across cores and hide exactly
// the axis being measured), so process count is the scaling axis: the
// in-process row is what one process-slot does, and a K-process row shows
// what K slots buy. On a 1-CPU host all rows sit at parity or below (the
// protocol adds serialization without adding silicon); the >=1.8x floor for
// the 4-process fleet is asserted only on hosts with at least 4 CPUs.

// distSearchModel is the model the workload runs on; distSearchIslands the
// ring width (GA islands, no scouts — divisible across 1/2/4 processes).
const (
	distSearchModel   = "resnet50"
	distSearchIslands = 4
)

// distRow is one contender of the distsearch workload.
type distRow struct {
	// Mode is "inprocess" or "deterministic" (a worker fleet).
	Mode string `json:"mode"`
	// WorkerProcs is the number of worker processes (0 for the in-process row).
	WorkerProcs   int     `json:"worker_procs"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	NsPerOp       float64 `json:"ns_per_op"`
	// SpeedupVsInProcess is samples/s relative to the in-process row.
	SpeedupVsInProcess float64 `json:"speedup_vs_inprocess,omitempty"`
}

// distReport is the distsearch workload file (BENCH_distsearch.json).
type distReport struct {
	Bench   string    `json:"bench"`
	Go      string    `json:"go"`
	GOOS    string    `json:"goos"`
	GOARCH  string    `json:"goarch"`
	NumCPU  int       `json:"num_cpu"`
	Model   string    `json:"model"`
	Islands int       `json:"islands"`
	Note    string    `json:"note"`
	Rows    []distRow `json:"distsearch"`
}

// runDistWorker is the hidden worker mode: benchreport re-executes itself
// with -dist-worker to host a slice of the ring in a real separate process.
// It publishes its listen address to addrFile and serves until killed.
func runDistWorker(addrFile, model string) {
	ev, err := buildDistEvaluator(model)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		log.Fatal(err)
	}
	if err := dist.Serve(ln, ev, 1); err != nil {
		log.Fatal(err)
	}
}

func buildDistEvaluator(model string) (*eval.Evaluator, error) {
	g, err := models.Build(model)
	if err != nil {
		return nil, err
	}
	return eval.New(g, hw.DefaultPlatform(), tiling.DefaultConfig())
}

// spawnBenchWorkers starts k real worker processes and returns their
// addresses plus a cleanup that kills them.
func spawnBenchWorkers(model string, k int) ([]string, func(), error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp("", "distsearch")
	if err != nil {
		return nil, nil, err
	}
	var cmds []*exec.Cmd
	cleanup := func() {
		for _, c := range cmds {
			c.Process.Kill()
			c.Wait()
		}
		os.RemoveAll(dir)
	}
	addrFiles := make([]string, k)
	for i := 0; i < k; i++ {
		addrFiles[i] = filepath.Join(dir, fmt.Sprintf("worker%d.addr", i))
		cmd := exec.Command(exe, "-dist-worker", addrFiles[i], "-dist-worker-model", model)
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			cleanup()
			return nil, nil, err
		}
		cmds = append(cmds, cmd)
	}
	addrs := make([]string, k)
	deadline := time.Now().Add(120 * time.Second)
	for i, f := range addrFiles {
		for {
			if data, err := os.ReadFile(f); err == nil {
				addrs[i] = string(data)
				break
			}
			if time.Now().After(deadline) {
				cleanup()
				return nil, nil, fmt.Errorf("distsearch worker %d never published its address", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return addrs, cleanup, nil
}

// distSearchOptions is the shared search configuration: a 4-GA-island ring,
// one evaluation goroutine per process so process count is the scaling axis.
func distSearchOptions(samples int) search.Options {
	return search.Options{
		Core: core.Options{
			Seed: 7, Workers: 1, Population: 50, MaxSamples: samples,
			Objective: eval.Objective{Metric: eval.MetricEMA},
			Mem:       core.MemSearch{Fixed: defaultMem()},
		},
		Islands:      distSearchIslands,
		MigrateEvery: 5,
	}
}

// runDistSearchWorkload runs the distsearch workload and writes out,
// returning false when the scaling floor failed.
func runDistSearchWorkload(out string, samples int) bool {
	opt := distSearchOptions(samples)
	total := float64(distSearchIslands * samples)

	// Pin this process — the in-process baseline and the coordinator — to one
	// CPU for the duration of the workload; worker processes are pinned via
	// GOMAXPROCS=1 in their environment. Process count is the scaling axis.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	rep := distReport{
		Bench:   "distsearch",
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		NumCPU:  runtime.NumCPU(),
		Model:   distSearchModel,
		Islands: distSearchIslands,
		Note:    "aggregate samples/s for the same 4-island ring: in-process vs 1/2/4 worker processes (bit-identical results); every process is pinned to one CPU (GOMAXPROCS=1), so process count is the scaling axis; on a 1-CPU host all rows sit at parity or below (the protocol adds serialization without adding silicon) — the >=1.8x floor for 4 processes vs in-process is asserted only on >=4-CPU hosts",
	}

	// One long-lived evaluator per process slot, like the worker processes
	// keep across sessions: iterations after the first run against a warm
	// subgraph-cost cache on every contender alike.
	inprocEv, err := buildDistEvaluator(distSearchModel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: distsearch: %v\n", err)
		os.Exit(1)
	}
	inproc := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := search.Run(inprocEv, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	base := distRow{
		Mode:          "inprocess",
		SamplesPerSec: total * float64(inproc.N) / inproc.T.Seconds(),
		NsPerOp:       float64(inproc.NsPerOp()),
	}
	fmt.Printf("dists %-13s procs=0 %10.0f samples/s  (baseline)\n", base.Mode, base.SamplesPerSec)
	rep.Rows = append(rep.Rows, base)

	var det4 float64
	for _, k := range []int{1, 2, 4} {
		addrs, cleanup, err := spawnBenchWorkers(distSearchModel, k)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: distsearch: %v\n", err)
			os.Exit(1)
		}
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := dist.Run(inprocEv, dist.Options{Search: opt, Workers: addrs}); err != nil {
					b.Fatal(err)
				}
			}
		})
		cleanup()
		row := distRow{
			Mode:          "deterministic",
			WorkerProcs:   k,
			SamplesPerSec: total * float64(res.N) / res.T.Seconds(),
			NsPerOp:       float64(res.NsPerOp()),
		}
		if base.SamplesPerSec > 0 {
			row.SpeedupVsInProcess = row.SamplesPerSec / base.SamplesPerSec
		}
		fmt.Printf("dists %-13s procs=%d %10.0f samples/s  (%.2fx vs in-process)\n",
			row.Mode, row.WorkerProcs, row.SamplesPerSec, row.SpeedupVsInProcess)
		rep.Rows = append(rep.Rows, row)
		if k == 4 {
			det4 = row.SamplesPerSec
		}
	}

	failed := false
	if runtime.NumCPU() >= 4 {
		if det4 < 1.8*base.SamplesPerSec {
			fmt.Fprintf(os.Stderr, "benchreport: distsearch: 4-process fleet only %.2fx in-process (want >= 1.8x on a %d-CPU host)\n",
				det4/base.SamplesPerSec, runtime.NumCPU())
			failed = true
		}
	} else {
		fmt.Printf("dists scaling floor skipped: %d-CPU host (floor asserted at >= 4 CPUs)\n", runtime.NumCPU())
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: marshal distsearch: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: write distsearch: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", out)
	return !failed
}
