package main

import (
	"math/rand"
	"time"

	"cocco/internal/serialize"
)

// Input generators. Every input a workload feeds the program comes from
// these functions and the run's seed alone; the same seed always yields the
// same inputs.

// coexploreModels are the irregular graphs of cocco-coexplore: their cold
// cost caches put the most work on tiling and subgraph costing.
var coexploreModels = []string{"nasnet", "randwire-a", "randwire-b", "densenet121"}

// searchOp is one search a closed-loop client asks for.
type searchOp struct {
	Model string
	Seed  int64
}

// coexploreOps returns the first n searches of a cocco-coexplore run. They
// come in blocks of four, each a seeded permutation of the four models, so
// every whole block holds each model once whatever the seed: the mix, and
// so the throughput a run measures, does not drift with the seed.
func coexploreOps(seed int64, n int) []searchOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []searchOp
	for len(ops) < n {
		for _, i := range rng.Perm(len(coexploreModels)) {
			ops = append(ops, searchOp{Model: coexploreModels[i], Seed: rng.Int63()})
		}
	}
	return ops[:n]
}

// seeds returns n search seeds drawn from the run seed.
func seeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// Job mix of coccod-jobs: every model at every per-island sample budget.
var (
	jobModels  = []string{"mobilenetv2", "resnet50", "googlenet"}
	jobSamples = []int{1500, 3000, 5000}
)

// jobOp is one job of the open loop and the time it is due, counted from
// the start of the window.
type jobOp struct {
	Due  time.Duration
	Spec serialize.JobSpecJSON
}

// jobSchedule returns the jobs of an open loop of independent users: a
// Poisson process at rate jobs per second, its exponential gaps drawn from
// the seed, over window — and at least minJobs jobs, however short the
// window. The specs cycle through the nine (model, samples) pairs in seeded
// blocks of nine, so the mix stays balanced whatever the seed.
func jobSchedule(seed int64, rate float64, window time.Duration, minJobs int) []jobOp {
	rng := rand.New(rand.NewSource(seed))
	gap := func() time.Duration { return time.Duration(rng.ExpFloat64() / rate * float64(time.Second)) }
	var dues []time.Duration
	for due := gap(); due < window || len(dues) < minJobs; due += gap() {
		dues = append(dues, due)
	}
	n := len(dues)
	var ops []jobOp
	for len(ops) < n {
		for _, k := range rng.Perm(len(jobModels) * len(jobSamples)) {
			ops = append(ops, jobOp{
				Spec: serialize.JobSpecJSON{
					Model:   jobModels[k/len(jobSamples)],
					Metric:  "ema",
					Seed:    rng.Int63(),
					Samples: jobSamples[k%len(jobSamples)],
					Islands: 2,
					Scouts:  []string{"sa"},
				},
			})
		}
	}
	ops = ops[:n]
	for i := range ops {
		ops[i].Due = dues[i]
	}
	return ops
}
