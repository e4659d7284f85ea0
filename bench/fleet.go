package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/search"
	"cocco/internal/search/dist"
	"cocco/internal/tiling"
)

// coccow-fleet: a closed loop of one client whose process is the
// coordinator of a two-worker fleet, as `cocco -dist-workers` is. Each
// worker is this program re-executed as a dist worker with GOMAXPROCS=1 and
// one scoring goroutine. Worker caches stay warm across searches, so the
// wire frames and the round barrier sit on the critical path.

const (
	fleetModel   = "resnet50"
	fleetWorkers = 2
	fleetSamples = 5000
	// fleetTraced is how many searches a traced run replays.
	fleetTraced = 2
)

var fleetObjective = eval.Objective{Metric: eval.MetricEMA}

func fleetOptions(seed int64, scale float64) search.Options {
	return search.Options{
		Core: core.Options{
			Seed: seed, Workers: 2, Population: popSize(scale), MaxSamples: budget(fleetSamples, scale),
			Objective: fleetObjective,
			Mem: core.MemSearch{Kind: hw.SeparateBuffer, Fixed: hw.MemConfig{
				Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB,
			}},
		},
		Islands:      4,
		MigrateEvery: 5,
	}
}

func fleetEvaluator() (*eval.Evaluator, error) {
	g, err := models.Build(fleetModel)
	if err != nil {
		return nil, err
	}
	return eval.New(g, hw.DefaultPlatform(), tiling.DefaultConfig())
}

// fleet is a set of running worker processes.
type fleet struct {
	cmds   []*exec.Cmd
	addrs  []string
	rssMiB float64 // largest peak RSS of a stopped worker
}

// spawnFleet starts n workers, reads the address each prints once it
// listens, and connects to each once.
func spawnFleet(n int) (*fleet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	var outs []io.Reader
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1", workerEnv+"=1")
		cmd.Stderr = os.Stderr
		// The worker drains when its stdin closes, so none outlives this process.
		_, err := cmd.StdinPipe()
		var out io.Reader
		if err == nil {
			out, err = cmd.StdoutPipe()
		}
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			f.stop()
			return nil, err
		}
		f.cmds, outs = append(f.cmds, cmd), append(outs, out)
	}
	for _, out := range outs {
		addr, err := bufio.NewReader(out).ReadString('\n')
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("worker never printed its address: %w", err)
		}
		addr = strings.TrimSpace(addr)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			f.stop()
			return nil, err
		}
		conn.Close()
		f.addrs = append(f.addrs, addr)
	}
	return f, nil
}

// stop kills every worker and waits for it to exit.
func (f *fleet) stop() {
	for _, c := range f.cmds {
		c.Process.Kill()
		c.Wait()
		if ru, ok := c.ProcessState.SysUsage().(*syscall.Rusage); ok {
			f.rssMiB = max(f.rssMiB, maxRSSMiB(ru))
		}
	}
	f.cmds = nil
}

// runWorker is the worker process: it prints its listen address on standard
// output and serves coordinator sessions until its stdin closes.
func runWorker() int {
	ev, err := fleetEvaluator()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench worker:", err)
		return 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		_, err = fmt.Println(ln.Addr())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench worker:", err)
		return 1
	}
	stop := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(stop)
	}()
	err = dist.ServeWith(ln, ev, dist.ServeConfig{Workers: 1, Stop: stop})
	if err != nil && !errors.Is(err, dist.ErrDraining) {
		fmt.Fprintln(os.Stderr, "bench worker:", err)
		return 1
	}
	return 0
}

func runFleet(cfg config, rep *report) error {
	var f *fleet
	var ev *eval.Evaluator
	setupS, err := timeSetup(func() (func(), error) {
		var err error
		if ev, err = fleetEvaluator(); err != nil {
			return nil, err
		}
		if f, err = spawnFleet(fleetWorkers); err != nil {
			return nil, err
		}
		return f.stop, nil
	})
	if err != nil {
		return err
	}
	defer f.stop()
	searchSeeds := seeds(cfg.seed, 4096)

	bests := make([]*core.Genome, len(searchSeeds))
	stats := make([]*search.Stats, len(searchSeeds))
	w := window{setupS: setupS}
	// Searches run in blocks of fleetTraced, so a traced run has as many to
	// replay however short its window; they differ only in their seeds.
	closedLoop(cfg, rep, &w, fleetTraced, func(i int) (int, error) {
		best, st, err := dist.Run(ev, dist.Options{Search: fleetOptions(searchSeeds[i], cfg.scale), Workers: f.addrs, IOTimeout: time.Minute})
		if err != nil {
			return 0, err
		}
		bests[i], stats[i] = best, st
		return st.Samples, nil
	})
	// Reap the workers first, so the peak RSS covers them.
	f.stop()
	w.rssMiB = max(peakRSSMiB(), f.rssMiB)
	addWindow(rep, w)
	for _, b := range bests {
		if b != nil {
			rep.check(rescoreGenome(fleetModel, b, fleetObjective))
		}
	}

	// The fleet must return what the same search returns in-process: the
	// first search always, the replayed ones too on a traced run, which
	// times the in-process searches for dist.overhead_ratio and replays them.
	n := 1
	if cfg.trace {
		n = fleetTraced
	}
	r := newReplay()
	var fleetWall, untraced time.Duration
	for i, seed := range searchSeeds[:n] {
		if bests[i] == nil {
			return fmt.Errorf("fleet search %d failed, so it cannot be checked", i)
		}
		fleetWall += time.Duration(w.searchS[i] * float64(time.Second))
		local, err := fleetEvaluator()
		if err != nil {
			return err
		}
		opt := fleetOptions(seed, cfg.scale)
		runtime.GC()
		t := time.Now()
		best, st, err := search.Run(local, opt)
		untraced += time.Since(t)
		if err != nil {
			return err
		}
		rep.check(sameSearch(best, st, bests[i], stats[i]))
		if cfg.trace {
			if err := traceSearch(r, rep, fleetEvaluator, opt, best, st, seed, cfg.dir); err != nil {
				return err
			}
		}
	}
	if !cfg.trace {
		return nil
	}
	rep.add("dist.overhead_ratio", ratio(float64(fleetWall), float64(untraced)))
	return finishTrace(cfg, rep, r, untraced, false)
}
