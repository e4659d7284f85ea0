package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/partition"
	"cocco/internal/search"
	"cocco/internal/search/dist"
	"cocco/internal/serialize"
	"cocco/internal/tiling"
)

// replay re-runs a workload's operations through the layers' public
// functions — search.RingHost, the serialize codecs, the evaluator, the
// tiling Deriver, the core operators, and the dist frame codec — with a span
// around every call. The replayed searches take the same steps as
// search.Run (or, sliced, as the job server) so their results must match
// the surface's bit for bit; the spans split their wall time into layers.
type replay struct {
	tr     *tracer
	traces int

	evs        []*eval.Evaluator // evaluators the replayed searches used
	derives    int               // cache entries replayed through the Deriver
	barriers   [][][]*core.Genome
	ckpts      [][]byte
	coreSt     []*core.Stats
	frameBytes int

	samples  int // GA samples spent by the replayed searches
	allocs   uint64
	gcs      uint32
	gcPauses time.Duration
}

func newReplay() *replay { return &replay{tr: newTracer()} }

func (r *replay) nextTrace() int { r.traces++; return r.traces }

// ringRun is the outcome of one replayed search.
type ringRun struct {
	host       *search.RingHost
	best       *core.Genome
	stats      search.Stats
	sent, recv []int
	ckpt       []byte // the last checkpoint written
}

// search replays one search the way search.Run drives its ring: Step every
// island MigrateEvery generations, then migrate around the ring, until no
// island progresses. With sliceRounds > 0 it runs as a job-server job
// instead: a checkpoint at every round, a pause every sliceRounds rounds,
// and each later slice resumed from the checkpoint file on disk. root names
// the root span.
func (r *replay) search(root string, ev *eval.Evaluator, opt search.Options, sliceRounds int, path string) (*ringRun, error) {
	opt = opt.WithDefaults()
	ring := opt.Islands + len(opt.Scouts)
	run := &ringRun{}
	trace := r.nextTrace()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rootID := r.tr.start(root, trace, 0)
	for first := true; ; first = false {
		var err error
		if first {
			id := r.tr.start("search.ring_init", trace, rootID)
			run.host, err = search.NewRingHost(ev, opt, 0, ring)
			r.tr.end(id)
		} else {
			err = r.resume(trace, rootID, ev, opt, run, path)
		}
		if err != nil {
			return nil, err
		}
		start, done := run.stats.Rounds, false
		for {
			id := r.tr.start("search.ring_step", trace, rootID)
			progressed := run.host.Step(opt.MigrateEvery)
			r.tr.end(id)
			if !anyTrue(progressed) {
				done = true
				break
			}
			run.stats.Rounds++
			id = r.tr.start("search.migrate", trace, rootID)
			if ring > 1 {
				r.migrate(run, ring)
			}
			r.tr.end(id)
			if sliceRounds > 0 {
				if err := r.save(trace, rootID, ev, opt, run, path); err != nil {
					return nil, err
				}
				if run.stats.Rounds-start >= sliceRounds {
					done = allTrue(run.host.Done())
					break
				}
			}
		}
		if done {
			break
		}
	}
	r.tr.end(rootID)
	runtime.ReadMemStats(&m1)
	r.allocs += m1.TotalAlloc - m0.TotalAlloc
	r.gcs += m1.NumGC - m0.NumGC
	r.gcPauses += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	run.best, run.stats.BestIsland = search.AggregateBest(run.host.Bests())
	for _, is := range run.host.Stats() {
		run.stats.IslandStats = append(run.stats.IslandStats, is)
		run.stats.Samples += is.Samples
		run.stats.FeasibleSamples += is.FeasibleSamples
		run.stats.MemoHits += is.MemoHits
	}
	r.samples += run.stats.Samples
	r.evs = append(r.evs, ev)
	return run, nil
}

// migrate is one ring barrier: every island's emigrants are selected before
// any is committed to its ring successor, as the orchestrator does.
func (r *replay) migrate(run *ringRun, ring int) {
	if run.sent == nil {
		run.sent, run.recv = make([]int, ring), make([]int, ring)
	}
	out := run.host.Emigrants()
	for i, gs := range out {
		if err := run.host.Immigrate((i+1)%ring, gs); err != nil {
			panic(err) // the host holds the whole ring
		}
		run.sent[i] += len(gs)
		run.recv[(i+1)%ring] += len(gs)
	}
	run.stats.Migrations++
	r.barriers = append(r.barriers, out)
}

// checkpoint encodes the run's state exactly as the orchestrator does.
func checkpoint(ev *eval.Evaluator, opt search.Options, run *ringRun) ([]byte, error) {
	return serialize.EncodeCheckpoint(&serialize.CheckpointJSON{
		Graph:            ev.Graph().Name,
		Config:           search.Fingerprint(opt),
		Round:            run.stats.Rounds,
		Migrations:       run.stats.Migrations,
		MigrantsSent:     run.sent,
		MigrantsReceived: run.recv,
		Islands:          run.host.Snapshots(),
	})
}

// save writes the run's checkpoint.
func (r *replay) save(trace, parent int, ev *eval.Evaluator, opt search.Options, run *ringRun, path string) error {
	id := r.tr.start("serialize.ckpt_encode", trace, parent)
	data, err := checkpoint(ev, opt, run)
	r.tr.end(id)
	if err != nil {
		return err
	}
	id = r.tr.start("serialize.ckpt_write", trace, parent)
	err = serialize.AtomicWriteFile(path, data, 0o644)
	r.tr.end(id)
	run.ckpt = data
	r.ckpts = append(r.ckpts, data)
	return err
}

// resume rebuilds the ring from the checkpoint file, as search.RunOrResume
// does at the start of every job-server slice after the first.
func (r *replay) resume(trace, parent int, ev *eval.Evaluator, opt search.Options, run *ringRun, path string) error {
	id := r.tr.start("serialize.ckpt_decode", trace, parent)
	data, err := os.ReadFile(path)
	var cp *serialize.CheckpointJSON
	if err == nil {
		cp, err = serialize.DecodeCheckpoint(data)
	}
	r.tr.end(id)
	if err != nil {
		return err
	}
	id = r.tr.start("search.restore", trace, parent)
	defer r.tr.end(id)
	if err := search.CheckCheckpoint(cp, ev.Graph().Name, opt); err != nil {
		return err
	}
	host, err := search.NewRingHost(ev, opt, 0, opt.Islands+len(opt.Scouts))
	if err != nil {
		return err
	}
	if err := host.Restore(cp.Islands); err != nil {
		return err
	}
	run.host = host
	run.stats.Rounds, run.stats.Migrations = cp.Round, cp.Migrations
	run.sent, run.recv = cp.MigrantsSent, cp.MigrantsReceived
	return nil
}

// probeCheckpoint prices one checkpoint of a finished run's final state —
// encode, durable write, decode, restore — for workloads whose surface does
// not checkpoint, and checks that the restored ring snapshots to the same
// bytes.
func (r *replay) probeCheckpoint(ev *eval.Evaluator, opt search.Options, run *ringRun, path string) error {
	trace := r.nextTrace()
	root := r.tr.start("serialize.probe", trace, 0)
	err := r.save(trace, root, ev, opt, run, path)
	restored := &ringRun{}
	if err == nil {
		err = r.resume(trace, root, ev, opt, restored, path)
	}
	r.tr.end(root)
	if err != nil {
		return err
	}
	data, err := checkpoint(ev, opt, restored)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, run.ckpt) {
		return fmt.Errorf("restored checkpoint of %s re-encodes to %d bytes, not the %d written", ev.Graph().Name, len(data), len(run.ckpt))
	}
	return nil
}

// core replays one GA run on its own, timing every Optimizer.Step.
func (r *replay) core(ev *eval.Evaluator, copt core.Options) (*core.Genome, error) {
	trace := r.nextTrace()
	root := r.tr.start("core.run", trace, 0)
	o, err := core.NewOptimizer(ev, copt)
	if err != nil {
		return nil, err
	}
	for more := true; more; {
		id := r.tr.start("core.step", trace, root)
		more = o.Step()
		r.tr.end(id)
	}
	r.tr.end(root)
	best, st, err := o.Finish()
	r.coreSt = append(r.coreSt, st)
	return best, err
}

// probeLayers replays a search's cold and warm paths: every cached subgraph
// through a fresh tiling Deriver and a fresh evaluator (each result must
// match the cache), every population partition through the warm
// evaluator, and every partition operator over the population.
func (r *replay) probeLayers(ev *eval.Evaluator, pop []*core.Genome, seed int64) error {
	snap, err := ev.ExportCache()
	if err != nil {
		return err
	}
	g, tcfg := ev.Graph(), ev.Context().TilingConfig()
	der, err := tiling.NewDeriver(g, tcfg)
	if err != nil {
		return err
	}
	cold, err := eval.New(g, ev.Platform(), tcfg)
	if err != nil {
		return err
	}
	trace := r.nextTrace()
	members := make([]int, 0, g.Len())
	for _, e := range snap.Entries {
		members = partition.AppendKeyMembers(members[:0], string(snap.Arena[e.Off:e.Off+e.KeyLen]))
		id := r.tr.start("tiling.derive", trace, 0)
		fp, err := der.TotalFootprint(members)
		r.tr.end(id)
		if err != nil || fp != e.ActFootprint {
			return fmt.Errorf("%s: Deriver footprint %d (%v) for %v, cache holds %d", g.Name, fp, err, members, e.ActFootprint)
		}
		id = r.tr.start("eval.cold_subgraph", trace, 0)
		c := cold.Subgraph(members)
		r.tr.end(id)
		if c.Err != nil || c.WeightBytes != e.WeightBytes || c.InBytes != e.InBytes || c.OutBytes != e.OutBytes ||
			c.MACs != e.MACs || c.ComputeCycles != e.ComputeCycles || c.GLBAccessBytes != e.GLBAccessBytes {
			return fmt.Errorf("%s: cold cost of %v differs from the cached one", g.Name, members)
		}
	}
	r.derives += len(snap.Entries)

	for _, gn := range pop {
		r.tr.do("eval.partition", trace, 0, func() { ev.Partition(gn.P, gn.Mem) })
	}
	rng := rand.New(rand.NewSource(seed))
	ops := []core.MutationOp{core.OpModifyNode, core.OpSplitSubgraph, core.OpMergeSubgraphs}
	for i, gn := range pop {
		for _, op := range ops {
			r.tr.do("core.mutation", trace, 0, func() { core.ApplyMutationOp(g, rng, gn.P, op) })
		}
		mom := pop[(i+1)%len(pop)].P
		r.tr.do("core.mutation", trace, 0, func() { core.CrossoverPartition(g, rng, gn.P, mom) })
	}
	return nil
}

// population decodes the GA islands' final populations from the host.
func population(ev *eval.Evaluator, host *search.RingHost) ([]*core.Genome, error) {
	var pop []*core.Genome
	for _, isl := range host.Snapshots() {
		for i := range isl.Population {
			gn, err := search.DecodeGenome(ev.Graph(), &isl.Population[i], false)
			if err != nil {
				return nil, err
			}
			pop = append(pop, gn)
		}
	}
	return pop, nil
}

// frames prices the dist wire codec on the replay's real payloads: the
// migrant sets a fleet worker would send at every barrier, or, for a ring
// of one, the checkpoints a fleet would fetch. Every frame must decode to
// its payload.
func (r *replay) frames() error {
	var payloads [][]byte
	for _, out := range r.barriers {
		msg := struct {
			Out [][]serialize.GenomeJSON `json:"out"`
		}{Out: make([][]serialize.GenomeJSON, len(out))}
		for i, gs := range out {
			for _, gn := range gs {
				msg.Out[i] = append(msg.Out[i], *search.EncodeGenome(gn, true))
			}
		}
		p, err := json.Marshal(msg)
		if err != nil {
			return err
		}
		payloads = append(payloads, p)
	}
	if len(payloads) == 0 {
		payloads = r.ckpts
	}
	trace := r.nextTrace()
	for _, p := range payloads {
		r.frameBytes += len(p)
		var f []byte
		r.tr.do("dist.frame_encode", trace, 0, func() { f = dist.EncodeFrame(dist.MsgEmigrants, p) })
		var got []byte
		var err error
		r.tr.do("dist.frame_decode", trace, 0, func() { _, got, _, err = dist.DecodeFrame(f) })
		if err != nil || !bytes.Equal(got, p) {
			return fmt.Errorf("frame of %d bytes did not decode to its payload: %v", len(p), err)
		}
	}
	return nil
}

// coverage is the share of the replayed searches' wall time that their
// layer spans (ring construction, ring steps, migrations, checkpoint encode,
// write, decode and restore) account for.
func (r *replay) coverage() float64 {
	roots := make(map[int]bool)
	var wall, covered time.Duration
	for _, s := range r.tr.spans {
		if s.Name == "search.replay" || s.Name == "serve.job" {
			roots[s.SpanID] = true
			wall += s.dur()
		} else if roots[s.Parent] {
			covered += s.dur()
		}
	}
	return ratio(float64(covered), float64(wall))
}

// addMetrics turns the spans and counters into the per-layer metrics.
// untraced is the wall time the surface itself took for the same
// operations, the base of bench.trace_overhead_ratio.
func (r *replay) addMetrics(rep *report, untraced time.Duration) {
	spans := r.tr.spans
	self := selfTimes(spans)
	wall := total(spans, "search.replay") + total(spans, "serve.job")

	rep.add("tiling.derive_us_p50", medianOf(durations(spans, "tiling.derive"), time.Microsecond))
	rep.add("tiling.derives", float64(r.derives))

	var hits, calls, reused, entries int64
	seen := make(map[*eval.GraphContext]bool)
	for _, ev := range r.evs {
		h, c := ev.CacheStats()
		hits, calls, reused = hits+h, calls+c, reused+ev.DeltaStats()
		if !seen[ev.Context()] {
			seen[ev.Context()] = true
			entries += ev.CacheEntries()
		}
	}
	rep.add("eval.cold_subgraph_us_p50", medianOf(durations(spans, "eval.cold_subgraph"), time.Microsecond))
	rep.add("eval.cache_entries", float64(entries))
	rep.add("eval.cache_hit_ratio", ratio(float64(hits), float64(calls)))
	rep.add("eval.delta_reuse_ratio", ratio(float64(reused), float64(reused+calls)))
	rep.add("eval.partition_us_p50", medianOf(durations(spans, "eval.partition"), time.Microsecond))

	var samples, memo, feasible int
	for _, st := range r.coreSt {
		samples, memo, feasible = samples+st.Samples, memo+st.MemoHits, feasible+st.FeasibleSamples
	}
	rep.add("core.step_ms_p50", medianOf(durations(spans, "core.step"), time.Millisecond))
	rep.add("core.mutation_us_p50", medianOf(durations(spans, "core.mutation"), time.Microsecond))
	rep.add("core.memo_hit_ratio", ratio(float64(memo), float64(samples)))
	rep.add("core.feasible_ratio", ratio(float64(feasible), float64(samples)))

	rep.add("search.ring_step_share", ratio(float64(self["search.ring_step"]), float64(wall)))
	rep.add("search.migrate_ms_p50", medianOf(durations(spans, "search.migrate"), time.Millisecond))
	rep.add("search.rounds", float64(len(durations(spans, "search.migrate"))))

	sizes := make([]float64, len(r.ckpts))
	for i, c := range r.ckpts {
		sizes[i] = float64(len(c))
	}
	ckptSelf := self["serialize.ckpt_encode"] + self["serialize.ckpt_write"] + self["serialize.ckpt_decode"]
	rep.add("serialize.ckpt_bytes_p50", median(sizes))
	rep.add("serialize.ckpt_bytes_max", sorted(sizes)[len(sizes)-1])
	rep.add("serialize.ckpt_encode_ms_p50", medianOf(durations(spans, "serialize.ckpt_encode"), time.Millisecond))
	rep.add("serialize.ckpt_write_ms_p50", medianOf(durations(spans, "serialize.ckpt_write"), time.Millisecond))
	rep.add("serialize.ckpt_decode_ms_p50", medianOf(durations(spans, "serialize.ckpt_decode"), time.Millisecond))
	rep.add("search.restore_ms_p50", medianOf(durations(spans, "search.restore"), time.Millisecond))
	rep.add("serialize.ckpt_share", ratio(float64(ckptSelf), float64(wall)))

	kib := float64(r.frameBytes) / 1024
	rep.add("dist.frame_encode_us_per_kib", ratio(float64(total(spans, "dist.frame_encode"))/1e3, kib))
	rep.add("dist.frame_decode_us_per_kib", ratio(float64(total(spans, "dist.frame_decode"))/1e3, kib))

	rep.add("runtime.alloc_bytes_per_sample", ratio(float64(r.allocs), float64(r.samples)))
	rep.add("runtime.gc_cycles", float64(r.gcs))
	rep.add("runtime.gc_pause_ms", float64(r.gcPauses)/1e6)
	rep.add("bench.trace_overhead_ratio", ratio(float64(wall), float64(untraced)))
}

// ratio is a/b, or 0 when nothing was measured (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

func allTrue(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}
