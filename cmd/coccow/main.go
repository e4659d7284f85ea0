// Command coccow is the distributed-search worker. It builds one evaluator
// for a model/platform/tiling triple, listens on -listen, and serves
// coordinator sessions (cocco -dist-workers) until killed. The evaluator
// comes from serve.NewEvaluator, the function that builds its coordinator's
// and every coccod job's. The handshake compares evaluator fingerprints, so
// a worker started with different flags than its coordinator refuses the
// session instead of silently diverging.
//
// Example — a 2-process fleet on one machine:
//
//	coccow -model resnet152 -listen 127.0.0.1:7701 &
//	coccow -model resnet152 -listen 127.0.0.1:7702 &
//	cocco  -model resnet152 -islands 4 -scouts sa -dist-workers 127.0.0.1:7701,127.0.0.1:7702
//
// SIGINT/SIGTERM drain the worker: the listener closes (no new sessions), an
// in-flight session is aborted at its next frame boundary with an error frame
// to the coordinator, and the process exits with status 3 so supervisors can
// tell a clean drain from a crash.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cocco/internal/models"
	"cocco/internal/search/dist"
	"cocco/internal/serialize"
	"cocco/internal/serve"
	"cocco/internal/tiling"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("coccow: ")

	var (
		listen    = flag.String("listen", "127.0.0.1:0", "address to accept coordinator connections on")
		model     = flag.String("model", "resnet50", "model name: "+strings.Join(models.Names(), ", "))
		cores     = flag.Int("cores", 1, "number of accelerator cores (must match the coordinator)")
		batch     = flag.Int("batch", 1, "batch size (must match the coordinator)")
		workers   = flag.Int("workers", 0, "evaluation goroutines for this process (0 = all CPUs)")
		tcfgFlag  = flag.String("tiling", tiling.DefaultConfig().String(), "base tile as HxW (must match the coordinator)")
		cacheLoad = flag.String("cache-load", "", "warm-start from this cost-cache snapshot if it exists; a file that does not load is an error")
		ioTimeout = flag.Duration("io-timeout", 3*time.Minute, "per-frame I/O deadline on coordinator sessions; must exceed the fleet's slowest MigrateEvery-round step (0 = no deadline)")
	)
	flag.Parse()

	ev, err := serve.NewEvaluator(serialize.JobSpecJSON{Model: *model, Tiling: *tcfgFlag, Cores: *cores, Batch: *batch})
	if err != nil {
		log.Fatal(err)
	}
	if *cacheLoad != "" {
		n, err := serialize.LoadCostCacheFile(ev, *cacheLoad)
		switch {
		case errors.Is(err, os.ErrNotExist):
			fmt.Printf("no cache snapshot at %s; starting cold\n", *cacheLoad)
		case err != nil:
			log.Fatal(err)
		default:
			fmt.Printf("warm start: loaded %d cached subgraph costs from %s\n", n, *cacheLoad)
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	// The resolved address matters with -listen :0; print it in a greppable
	// form so scripts (and the CI dist-smoke job) can pick it up.
	fmt.Printf("coccow listening on %s (model %s, %d nodes)\n", ln.Addr(), ev.Graph().Name, ev.Graph().Len())

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("received %v: refusing new sessions, aborting in-flight session at next frame", s)
		close(stop)
	}()

	err = dist.ServeWith(ln, ev, dist.ServeConfig{Workers: *workers, IOTimeout: *ioTimeout, Stop: stop})
	switch {
	case errors.Is(err, dist.ErrDraining):
		log.Printf("drained cleanly")
		os.Exit(3)
	case err != nil:
		log.Fatal(err)
	}
}
