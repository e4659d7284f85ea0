package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/search"
	"cocco/internal/serialize"
	"cocco/internal/serve"
	"cocco/internal/tiling"
)

// coccod-jobs: an open loop of independent users submitting search jobs to
// a job server as a seeded Poisson process, timed from each job's due time.
// Every round of every job writes an fsynced checkpoint and every slice
// after the first resumes from disk, so this is the workload that pays for
// durability.

const (
	jobRate = 1.5 // jobs per second; the server is about 40% busy on a 2-CPU box
	// The server's settings, fixed rather than derived from the CPU count.
	jobPoolWorkers = 2
	jobSliceRounds = 4
	jobEvalWorkers = 1
	// jobsChecked is how many results are compared with a direct search.
	jobsChecked = 3
	// jobsTraced is how many jobs a traced run replays.
	jobsTraced   = 6
	drainTimeout = 2 * time.Minute
)

// jobServer is a job server behind a loopback listener, with one client
// holding one keep-alive connection.
type jobServer struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan struct{}
	dir    string
}

func startServer(dir string) (*jobServer, error) {
	srv, err := serve.NewServer(serve.Options{
		Dir: dir, PoolWorkers: jobPoolWorkers, SliceRounds: jobSliceRounds, EvalWorkers: jobEvalWorkers,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &jobServer{
		srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		served: make(chan struct{}), dir: dir,
	}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	// The first request opens the connection every submission then reuses.
	resp, err := s.client.Get(s.url + "/jobs")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the listener, waits for it, and stops the server's pool.
func (s *jobServer) close() {
	s.client.CloseIdleConnections()
	s.hs.Close()
	<-s.served
	s.srv.Close()
}

// submit posts a job spec and returns the job's ID.
func (s *jobServer) submit(spec serialize.JobSpecJSON) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := s.client.Post(s.url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("submit refused: %s: %s", resp.Status, data)
	}
	var out struct{ ID string }
	if err := json.Unmarshal(data, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// jobRun is one job's life as the client and Server.Watch saw it.
type jobRun struct {
	op       jobOp
	id       string
	due      time.Time
	lag      time.Duration // how late the generator sent it
	submit   time.Duration // POST /jobs round trip, including the manifest fsync
	accepted time.Time
	queued   time.Duration   // accepted until first running
	requeued []time.Duration // paused until running again
	done     time.Time
	final    *serialize.JobManifestJSON
	err      error
}

// watch follows a job's manifest until it is terminal.
func (j *jobRun) watch(srv *serve.Server) {
	state, slices := serialize.JobStateQueued, 0
	since := j.accepted
	for {
		m, ch, err := srv.Watch(j.id)
		now := time.Now()
		if err != nil {
			j.err = err
			return
		}
		switch {
		case m.State == serialize.JobStateRunning && state == serialize.JobStateQueued:
			j.queued = now.Sub(since)
		case m.State == serialize.JobStateRunning && state == serialize.JobStatePaused:
			j.requeued = append(j.requeued, now.Sub(since))
		case m.State == serialize.JobStateRunning && m.Slices > slices:
			// Paused and picked up again between two looks: no wait to speak of.
			j.requeued = append(j.requeued, 0)
		}
		if m.State != state {
			state, since = m.State, now
		}
		slices = m.Slices
		switch m.State {
		case serialize.JobStateDone, serialize.JobStateFailed, serialize.JobStateCancelled:
			j.done, j.final = now, m
			return
		}
		<-ch
	}
}

// openLoop submits ops on their schedule, compressed by scale, and waits
// until every accepted job is terminal. A refused submission is recorded on
// its jobRun.
func openLoop(s *jobServer, ops []jobOp, scale float64) ([]*jobRun, error) {
	var wg sync.WaitGroup
	runs := make([]*jobRun, len(ops))
	start := time.Now()
	for i, op := range ops {
		j := &jobRun{op: op, due: start.Add(time.Duration(float64(op.Due) * scale))}
		runs[i] = j
		time.Sleep(time.Until(j.due))
		sent := time.Now()
		j.lag = sent.Sub(j.due)
		j.id, j.err = s.submit(op.Spec)
		j.accepted = time.Now()
		j.submit = j.accepted.Sub(sent)
		if j.err != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			j.watch(s.srv)
		}()
	}
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return runs, nil
	case <-time.After(drainTimeout):
		return nil, fmt.Errorf("jobs still running %v after the last submission", drainTimeout)
	}
}

// result decodes a finished job's best genome.
func (j *jobRun) result() (*core.Genome, error) {
	if j.err != nil {
		return nil, j.err
	}
	if j.final.State != serialize.JobStateDone || j.final.Result == nil {
		return nil, fmt.Errorf("job %s ended %s without a result: %s", j.id, j.final.State, j.final.Error)
	}
	g, err := models.Build(j.op.Spec.Model)
	if err != nil {
		return nil, err
	}
	return search.DecodeGenome(g, j.final.Result, true)
}

// runTime is the wall time the server spent inside the job's slices, as its
// manifest reports it.
func (j *jobRun) runTime() time.Duration {
	p := j.final.Progress
	if p == nil || p.SamplesPerSec == 0 {
		return 0
	}
	return time.Duration(float64(p.Samples) / p.SamplesPerSec * float64(time.Second))
}

// jobSearch rebuilds, as the server does, the search a submitted spec
// describes — the spec is the only input to a job's trajectory — and a
// fresh evaluator for it.
func jobSearch(spec serialize.JobSpecJSON) (search.Options, *eval.Evaluator, error) {
	spec, err := serve.NormalizeSpec(spec)
	if err != nil {
		return search.Options{}, nil, err
	}
	if spec.MemSearch || spec.Kind != "separate" || spec.Tiling != tiling.DefaultConfig().String() {
		return search.Options{}, nil, fmt.Errorf("job spec outside the workload's mix: %+v", spec)
	}
	obj := eval.Objective{Metric: eval.MetricEnergy, Alpha: spec.Alpha}
	if spec.Metric == "ema" {
		obj.Metric = eval.MetricEMA
	}
	opt := search.Options{
		Core: core.Options{
			Seed: spec.Seed, Workers: jobEvalWorkers, Population: spec.Population, MaxSamples: spec.Samples,
			Objective: obj,
			Mem: core.MemSearch{Kind: hw.SeparateBuffer, Fixed: hw.MemConfig{
				Kind: hw.SeparateBuffer, GlobalBytes: spec.GLBKiB * hw.KiB, WeightBytes: spec.WGTKiB * hw.KiB,
			}},
		},
		Islands: spec.Islands, MigrateEvery: spec.MigrateEvery, Migrants: spec.Migrants,
	}
	for _, sc := range spec.Scouts {
		kind := search.ScoutSA
		if sc == "greedy" {
			kind = search.ScoutGreedy
		}
		opt.Scouts = append(opt.Scouts, kind)
	}
	g, err := models.Build(spec.Model)
	if err != nil {
		return search.Options{}, nil, err
	}
	platform := hw.DefaultPlatform()
	platform.Cores, platform.Batch = spec.Cores, spec.Batch
	ev, err := eval.New(g, platform, tiling.DefaultConfig())
	return opt, ev, err
}

// checkJobs rescores every result and compares the first few with a direct
// in-process search of the same spec, which must be bit-identical.
func checkJobs(rep *report, runs []*jobRun) {
	for i, j := range runs {
		best, err := j.result()
		if err == nil {
			err = rescoreGenome(j.op.Spec.Model, best, eval.Objective{Metric: eval.MetricEMA})
		}
		rep.check(err)
		if err != nil || i >= jobsChecked {
			continue
		}
		opt, ev, err := jobSearch(j.op.Spec)
		var direct *core.Genome
		if err == nil {
			direct, _, err = search.Run(ev, opt)
		}
		if err == nil {
			err = sameGenome(direct, best)
		}
		rep.check(err)
	}
}

// addServeRows records the open loop's per-job server intervals.
func addServeRows(rep *report, runs []*jobRun) {
	var queued, requeued, running, slices, submits, lag []float64
	for _, j := range runs {
		lag = append(lag, float64(j.lag)/1e6)
		if j.err != nil {
			continue
		}
		queued = append(queued, j.queued.Seconds())
		for _, d := range j.requeued {
			requeued = append(requeued, d.Seconds())
		}
		running = append(running, j.runTime().Seconds())
		slices = append(slices, float64(j.final.Slices))
		submits = append(submits, float64(j.submit)/1e6)
	}
	rep.add("bench.generator_lag_ms_max", sorted(lag)[len(lag)-1])
	rep.add("serve.queue_wait_s_p50", median(queued))
	rep.add("serve.requeue_wait_s_p50", median(requeued))
	rep.add("serve.run_s_p50", median(running))
	rep.add("serve.slices_per_job", median(slices))
	rep.add("serve.submit_ms_p50", median(submits))
}

func runJobs(cfg config, rep *report) error {
	var s *jobServer
	setupS, err := timeSetup(func() (func(), error) {
		dir, err := os.MkdirTemp(cfg.dir, "jobs")
		if err != nil {
			return nil, err
		}
		if s, err = startServer(dir); err != nil {
			return nil, err
		}
		return s.close, nil
	})
	if err != nil {
		return err
	}
	defer s.close()

	ops := jobSchedule(cfg.seed, jobRate, time.Duration(cfg.seconds*float64(time.Second)), max(jobsChecked, jobsTraced))
	for i := range ops {
		ops[i].Spec.Samples = budget(ops[i].Spec.Samples, cfg.scale)
		ops[i].Spec.Population = popSize(cfg.scale)
	}
	runs, err := openLoop(s, ops, cfg.scale)
	if err != nil {
		return err
	}
	// A refused or failed job fails its result check.
	rep.attempted += len(runs)

	w := window{setupS: setupS}
	var turnaround []float64
	for _, j := range runs {
		if j.err == nil && j.final.State == serialize.JobStateDone {
			turnaround = append(turnaround, j.done.Sub(j.due).Seconds())
			w.searchS = append(w.searchS, j.runTime().Seconds())
			w.busy += j.runTime()
			w.samples += j.final.Progress.Samples
		}
	}
	w.rssMiB = peakRSSMiB()
	addWindow(rep, w)
	addTiming(rep, "job_turnaround_s", turnaround)
	rep.add("job_turnaround_s_p90", percentile(turnaround, 90))
	addServeRows(rep, runs)
	checkJobs(rep, runs)
	if cfg.trace {
		return traceJobs(cfg, rep, s, runs[:jobsTraced])
	}
	return nil
}

// traceJobs replays served jobs through the ring, the checkpoint codec and
// durable writes, with the server's slice length, resuming every slice after
// the first from the file it wrote. Each job's final checkpoint must equal
// the server's byte for byte.
func traceJobs(cfg config, rep *report, s *jobServer, runs []*jobRun) error {
	r := newReplay()
	var untraced time.Duration
	replayDir := filepath.Join(cfg.dir, "replay")
	if err := os.MkdirAll(replayDir, 0o755); err != nil {
		return err
	}
	for _, j := range runs {
		untraced += j.runTime()
		opt, ev, err := jobSearch(j.op.Spec)
		if err != nil {
			return err
		}
		run, err := r.search("serve.job", ev, opt, jobSliceRounds, filepath.Join(replayDir, j.id+".ckpt"))
		if err != nil {
			return err
		}
		served, err := os.ReadFile(filepath.Join(s.dir, j.id+".ckpt"))
		if err == nil && !bytes.Equal(served, run.ckpt) {
			err = fmt.Errorf("job %s: replayed checkpoint (%d bytes) differs from the server's (%d bytes)", j.id, len(run.ckpt), len(served))
		}
		rep.check(err)
		best, err := j.result()
		if err == nil {
			err = sameGenome(best, run.best)
		}
		rep.check(err)
		pop, err := population(ev, run.host)
		if err != nil {
			return err
		}
		rep.check(r.probeLayers(ev, pop, j.op.Spec.Seed))
		_, coreEv, err := jobSearch(j.op.Spec)
		if err != nil {
			return err
		}
		if _, err := r.core(coreEv, islandZero(opt)); err != nil {
			return err
		}
	}
	return finishTrace(cfg, rep, r, untraced, true)
}
