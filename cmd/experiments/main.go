// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                 # run everything with the default budgets
//	experiments -exp table1     # one experiment
//	experiments -budget paper   # the paper's full sample budgets
//	experiments -budget quick   # smoke-test budgets
//
// Experiments: fig2, fig3, fig11, table1, table2, fig12, fig13, fig14,
// table3, ablations, bounds.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"cocco/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		exp     = flag.String("exp", "all", "experiment to run (all, fig1, fig2, fig3, fig11, table1, table2, fig12, fig13, fig14, table3, ablations, bounds)")
		budget  = flag.String("budget", "default", "sample budgets: quick | default | paper")
		seed    = flag.Int64("seed", 42, "random seed")
		workers = flag.Int("workers", 0, "evaluation goroutines per search (0 = all CPUs); results are identical for any value")
	)
	flag.Parse()

	var cfg experiments.Config
	switch *budget {
	case "quick":
		cfg = experiments.Quick()
	case "default":
		cfg = experiments.Default()
	case "paper":
		cfg = experiments.Paper()
	default:
		log.Fatalf("unknown budget %q", *budget)
	}
	cfg.Seed = *seed
	cfg.Workers = *workers

	runners := []struct {
		name string
		run  func() string
	}{
		{"fig1", func() string { _, s := experiments.Figure1Sweep(cfg, "resnet50"); return s }},
		{"fig2", experiments.Figure2},
		{"fig3", func() string { _, s := experiments.Figure3(); return s }},
		{"fig11", func() string { _, s := experiments.Figure11(cfg); return s }},
		{"table1", func() string { _, s := experiments.Table1(cfg); return s }},
		{"table2", func() string { _, s := experiments.Table2(cfg); return s }},
		{"fig12", func() string { _, s := experiments.Figure12(cfg); return s }},
		{"fig13", func() string { _, s := experiments.Figure13(cfg); return s }},
		{"fig14", func() string { _, s := experiments.Figure14(cfg); return s }},
		{"table3", func() string { _, s := experiments.Table3(cfg); return s }},
		{"ablations", func() string {
			_, a := experiments.AblationTiling()
			_, b := experiments.AblationGA(cfg)
			_, c := experiments.AblationCache(cfg)
			_, d := experiments.AblationPrefetch(cfg)
			_, e := experiments.AblationSeeding(cfg)
			_, f := experiments.AblationIslands(cfg)
			return a + b + c + d + e + f
		}},
		{"bounds", experiments.MinEMABounds},
	}

	ran := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		t0 := time.Now()
		fmt.Println(r.run())
		fmt.Printf("[%s completed in %v]\n\n", r.name, time.Since(t0).Round(time.Millisecond))
	}
	if !ran {
		log.Fatalf("unknown experiment %q", *exp)
	}
}
