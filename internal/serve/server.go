// Package serve is the search job server behind cmd/coccod: an HTTP/JSON
// API where a client submits a (model, tiling, platform, search options,
// sample budget) job, polls or streams progress, cancels, and fetches the
// final genome and cost.
//
// Scheduling. A fixed pool of PoolWorkers goroutines time-slices jobs
// fairly: the run queue is FIFO, a worker pops the head, advances it by one
// slice — SliceRounds migration rounds through search.RunOrResume with
// MaxRounds — and requeues it at the tail, so K concurrent jobs on a
// 1-worker pool round-robin at slice granularity. Slicing never shapes a
// trajectory (the PR-5 pause contract), so a served job's result is
// bit-identical to a direct search.Run with the same spec and seed,
// whatever the pool width or slice length.
//
// Durability. Every slice boundary persists two files per job, both written
// atomically: the orchestrator checkpoint (written by the search itself at
// every round barrier) and a versioned job manifest
// (serialize.JobManifestJSON) cataloguing the spec, state, and progress. A
// killed or restarted server rescans its directory, re-admits every
// non-terminal job whose spec NormalizeSpec still accepts, and resumes each
// from its checkpoint bit-identically — pinned by the kill-and-restart test
// against a direct run.
//
// Job state machine:
//
//	queued ──▶ running ──▶ paused ──▶ running ─▶ … ─▶ done
//	   │           │           │
//	   ▼           ▼           ▼
//	cancelled  (flag; lands at the next slice boundary)  failed
//
// queued: admitted, waiting for a pool worker (also every non-terminal
// state after a restart). running: a slice is in flight. paused: between
// slices, requeued. done: budget exhausted — Result holds the best genome,
// or is absent with Error set when no feasible genome exists. cancelled:
// by client request, applied immediately when waiting and at the next slice
// boundary when running (the in-flight slice is never aborted mid-round;
// its checkpoint stays on disk). failed: evaluator construction or
// checkpoint I/O errors, or a re-admitted spec that NormalizeSpec refuses.
package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/search"
	"cocco/internal/serialize"
)

// Options configures a Server.
type Options struct {
	// Dir is the job directory: one <id>.job manifest and one <id>.ckpt
	// checkpoint per job. Created if missing; rescanned at startup.
	Dir string
	// PoolWorkers is the number of concurrent job slices (default 1).
	PoolWorkers int
	// SliceRounds is the number of migration rounds per scheduling slice
	// (default 4). Smaller slices preempt fairer; larger slices amortize
	// resume overhead. Never affects results.
	SliceRounds int
	// EvalWorkers is the scoring-goroutine budget inside each slice
	// (default 1, so a full pool oversubscribes the CPU by at most
	// PoolWorkers). Never affects results.
	EvalWorkers int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.PoolWorkers <= 0 {
		o.PoolWorkers = 1
	}
	if o.SliceRounds <= 0 {
		o.SliceRounds = 4
	}
	if o.EvalWorkers <= 0 {
		o.EvalWorkers = 1
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// job is one tracked search job. All mutable fields are guarded by
// Server.mu; spec and id are immutable after admission.
type job struct {
	id   string
	spec serialize.JobSpecJSON

	state    string
	slices   int
	progress *serialize.JobProgressJSON
	result   *serialize.GenomeJSON
	errMsg   string

	cancelRequested bool
	submitted       time.Time
	updated         time.Time
	runDur          time.Duration   // wall time inside completed slices
	sliceStart      time.Time       // valid while state == running
	ev              *eval.Evaluator // lazily built, dropped on terminal states
	watch           chan struct{}   // closed and replaced on every visible change
}

// Server multiplexes many concurrent search jobs over a fixed worker pool.
type Server struct {
	opt Options

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   map[string]*job
	order  []string // admission order, for stable listings
	queue  []*job   // FIFO of runnable (queued/paused) jobs
	nextID int
	closed bool

	wg sync.WaitGroup
}

// NewServer opens (or creates) the job directory, re-admits every
// non-terminal job found there, and starts the worker pool. Jobs that were
// queued, running, or paused when the previous server died are requeued in
// ID order and resume from their checkpoints, unless NormalizeSpec refuses
// their specs, which fails them.
func NewServer(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		return nil, errors.New("serve: Options.Dir is required")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: job dir: %w", err)
	}
	s := &Server{opt: opt, jobs: make(map[string]*job)}
	s.cond = sync.NewCond(&s.mu)
	if err := s.rescan(); err != nil {
		return nil, err
	}
	for i := 0; i < opt.PoolWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// rescan loads every manifest in the job directory. Terminal jobs are kept
// as records; everything else is requeued — a manifest frozen in "running"
// means the previous server died mid-slice, and the job's checkpoint (from
// the last completed round barrier) is the resume point. A manifest is
// outside input, so a requeued spec passes the same NormalizeSpec admission
// as a submitted one; a spec it refuses fails its job, persisted, before
// any slice runs. A spec the server wrote normalizes to itself, so its
// options fingerprint is unchanged. rescan runs before the server is
// shared, so it takes no lock.
func (s *Server) rescan() error {
	entries, err := os.ReadDir(s.opt.Dir)
	if err != nil {
		return fmt.Errorf("serve: scan job dir: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".job") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.opt.Dir, name))
		if err != nil {
			return fmt.Errorf("serve: scan job dir: %w", err)
		}
		m, err := serialize.DecodeJobManifest(data)
		if err != nil {
			return fmt.Errorf("serve: job manifest %s: %w (delete the file to drop the job)", name, err)
		}
		if m.ID != strings.TrimSuffix(name, ".job") {
			return fmt.Errorf("serve: job manifest %s claims ID %q", name, m.ID)
		}
		j := &job{
			id:        m.ID,
			spec:      m.Spec,
			state:     m.State,
			slices:    m.Slices,
			progress:  m.Progress,
			result:    m.Result,
			errMsg:    m.Error,
			submitted: time.Unix(m.SubmittedUnix, 0),
			updated:   time.Unix(m.UpdatedUnix, 0),
			watch:     make(chan struct{}),
		}
		s.jobs[j.id] = j
		ids = append(ids, j.id)
		var n int
		if _, err := fmt.Sscanf(j.id, "j%d", &n); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
	}
	sort.Strings(ids)
	s.order = ids
	for _, id := range ids {
		j := s.jobs[id]
		if terminal(j.state) {
			continue
		}
		spec, err := NormalizeSpec(j.spec)
		if err != nil {
			j.errMsg = err.Error()
			s.transitionLocked(j, serialize.JobStateFailed)
			s.persistLocked(j)
			s.opt.Logf("serve: job %s failed re-admission: %v", j.id, err)
			continue
		}
		j.spec = spec
		j.state = serialize.JobStateQueued
		s.queue = append(s.queue, j)
		s.opt.Logf("serve: re-admitted job %s (%s, %d slices done)", j.id, j.spec.Model, j.slices)
	}
	return nil
}

func terminal(state string) bool {
	switch state {
	case serialize.JobStateDone, serialize.JobStateCancelled, serialize.JobStateFailed:
		return true
	}
	return false
}

// Close stops the worker pool and waits for in-flight slices to finish.
// Queued jobs stay durable in the directory; a new Server over the same
// directory picks them up.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

// Submit admits a job: the spec is normalized and validated, the queued
// manifest is persisted durably, and only then is the job listed and
// queued. A job whose manifest cannot be written is refused.
func (s *Server) Submit(spec serialize.JobSpecJSON) (string, error) {
	spec, err := NormalizeSpec(spec)
	if err != nil {
		return "", err
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", errors.New("serve: server is shutting down")
	}
	id := fmt.Sprintf("j%06d", s.nextID)
	s.nextID++
	j := &job{
		id: id, spec: spec,
		state:     serialize.JobStateQueued,
		submitted: now, updated: now,
		watch: make(chan struct{}),
	}
	// Persist before publishing, as persistLocked does at every transition:
	// a job the directory does not know about would vanish on restart, so
	// no worker or listing may see it until its manifest is durable.
	data, err := serialize.EncodeJobManifest(s.manifestLocked(j))
	if err == nil {
		err = serialize.AtomicWriteFile(s.jobPath(id), data, 0o644)
	}
	if err != nil {
		return "", fmt.Errorf("serve: persist job %s: %w", id, err)
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queue = append(s.queue, j)
	s.cond.Signal()
	return id, nil
}

// Cancel requests cancellation. A waiting job is cancelled immediately; a
// running one finishes its in-flight slice first (checkpoint and progress
// are persisted) and lands cancelled at the boundary. Cancelling a terminal
// job is an error.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	if terminal(j.state) {
		return fmt.Errorf("%w: job %s is already %s", ErrJobTerminal, id, j.state)
	}
	j.cancelRequested = true
	if j.state != serialize.JobStateRunning {
		s.transitionLocked(j, serialize.JobStateCancelled)
		s.persistLocked(j)
	}
	return nil
}

// Errors the HTTP layer maps to status codes.
var (
	ErrUnknownJob  = errors.New("serve: unknown job")
	ErrJobTerminal = errors.New("serve: job already terminal")
)

// Manifest returns a point-in-time copy of the job's manifest.
func (s *Server) Manifest(id string) (*serialize.JobManifestJSON, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return s.manifestLocked(j), nil
}

// Manifests lists every job in admission order.
func (s *Server) Manifests() []*serialize.JobManifestJSON {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*serialize.JobManifestJSON, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.manifestLocked(s.jobs[id]))
	}
	return out
}

// Watch returns the job's current manifest and a channel that closes on its
// next visible change (progress, state, or result).
func (s *Server) Watch(id string) (*serialize.JobManifestJSON, <-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, ErrUnknownJob
	}
	return s.manifestLocked(j), j.watch, nil
}

// manifestLocked snapshots a job into its wire form. Caller holds mu.
func (s *Server) manifestLocked(j *job) *serialize.JobManifestJSON {
	m := &serialize.JobManifestJSON{
		Version:       serialize.JobManifestVersion,
		ID:            j.id,
		State:         j.state,
		Spec:          j.spec,
		Slices:        j.slices,
		Error:         j.errMsg,
		SubmittedUnix: j.submitted.Unix(),
		UpdatedUnix:   j.updated.Unix(),
	}
	if j.progress != nil {
		p := *j.progress
		p.Islands = append([]serialize.JobIslandJSON(nil), j.progress.Islands...)
		m.Progress = &p
	}
	if j.result != nil {
		r := *j.result
		m.Result = &r
	}
	return m
}

func (s *Server) jobPath(id string) string        { return filepath.Join(s.opt.Dir, id+".job") }
func (s *Server) checkpointPath(id string) string { return filepath.Join(s.opt.Dir, id+".ckpt") }

// transitionLocked moves a job to a new state and wakes watchers. Caller
// holds mu.
func (s *Server) transitionLocked(j *job, state string) {
	j.state = state
	j.updated = time.Now()
	if terminal(state) {
		j.ev = nil
	}
	close(j.watch)
	j.watch = make(chan struct{})
}

// persistLocked rewrites the job's manifest. Caller holds mu; the write
// itself is atomic, so a crash mid-rewrite leaves the previous manifest. A
// failed write is logged, not fatal: the checkpoint is the recovery state,
// the manifest only catalogs it.
func (s *Server) persistLocked(j *job) {
	data, err := serialize.EncodeJobManifest(s.manifestLocked(j))
	if err == nil {
		err = serialize.AtomicWriteFile(s.jobPath(j.id), data, 0o644)
	}
	if err != nil {
		s.opt.Logf("serve: persist job %s: %v", j.id, err)
	}
}

// worker is one pool goroutine: pop the FIFO head, run one slice, repeat.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && len(s.queue) == 0 {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue = s.queue[1:]
		if j.state != serialize.JobStateQueued && j.state != serialize.JobStatePaused {
			// Cancelled while waiting in the queue.
			s.mu.Unlock()
			continue
		}
		j.sliceStart = time.Now()
		s.transitionLocked(j, serialize.JobStateRunning)
		s.persistLocked(j)
		s.mu.Unlock()
		s.runSlice(j)
	}
}

// runSlice advances one job by one MaxRounds-bounded slice and applies the
// outcome: requeue (paused), finish (done, with or without a feasible
// genome), cancel, or fail.
func (s *Server) runSlice(j *job) {
	opt, err := BuildOptions(j.spec)
	if err != nil {
		s.finishSlice(j, nil, nil, err, 0)
		return
	}
	ckpt := s.checkpointPath(j.id)
	opt.Checkpoint = ckpt
	opt.MaxRounds = s.opt.SliceRounds
	opt.Core.Workers = s.opt.EvalWorkers
	opt.Progress = func(best *core.Genome, st *search.Stats) { s.noteProgress(j, best, st) }

	s.mu.Lock()
	ev := j.ev
	s.mu.Unlock()
	if ev == nil {
		ev, err = NewEvaluator(j.spec)
		if err != nil {
			s.finishSlice(j, nil, nil, fmt.Errorf("serve: job %s evaluator: %w", j.id, err), 0)
			return
		}
		s.mu.Lock()
		j.ev = ev
		s.mu.Unlock()
	}
	start := time.Now()
	best, stats, err := search.RunOrResume(ev, opt, ckpt)
	s.finishSlice(j, best, stats, err, time.Since(start))
}

// finishSlice is the single slice-boundary commit point: progress, state
// transition, manifest persist, and requeue all happen here.
func (s *Server) finishSlice(j *job, best *core.Genome, stats *search.Stats, err error, dur time.Duration) {
	s.mu.Lock()
	j.runDur += dur
	j.slices++
	if stats != nil {
		j.progress = progressOf(j.spec, best, stats, j.runDur)
	}
	requeue := false
	switch {
	case stats != nil && stats.Paused:
		if j.cancelRequested {
			s.transitionLocked(j, serialize.JobStateCancelled)
		} else {
			s.transitionLocked(j, serialize.JobStatePaused)
			s.queue = append(s.queue, j)
			requeue = true
		}
	case err == nil:
		j.result = search.EncodeGenome(best, true)
		s.transitionLocked(j, serialize.JobStateDone)
	case stats != nil:
		// The search completed its budget without a feasible genome: a
		// finished (if empty-handed) job, not a server failure.
		j.errMsg = err.Error()
		s.transitionLocked(j, serialize.JobStateDone)
	default:
		j.errMsg = err.Error()
		s.transitionLocked(j, serialize.JobStateFailed)
		s.opt.Logf("serve: job %s failed: %v", j.id, err)
	}
	s.persistLocked(j)
	s.mu.Unlock()
	if requeue {
		s.cond.Signal()
	}
}

// noteProgress is the per-round callback inside a slice: progress updates
// in memory (and to watchers) every round, while the manifest on disk
// advances at slice boundaries.
func (s *Server) noteProgress(j *job, best *core.Genome, st *search.Stats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	elapsed := j.runDur
	if !j.sliceStart.IsZero() {
		elapsed += time.Since(j.sliceStart)
	}
	j.progress = progressOf(j.spec, best, st, elapsed)
	j.updated = time.Now()
	close(j.watch)
	j.watch = make(chan struct{})
}

// progressOf is the job's view of a search tally, mid-run or at a slice
// end; best may be nil.
func progressOf(spec serialize.JobSpecJSON, best *core.Genome, st *search.Stats, elapsed time.Duration) *serialize.JobProgressJSON {
	out := &serialize.JobProgressJSON{
		Rounds:          st.Rounds,
		Migrations:      st.Migrations,
		Samples:         st.Samples,
		FeasibleSamples: st.FeasibleSamples,
		MemoHits:        st.MemoHits,
		BestIsland:      st.BestIsland,
	}
	if best != nil {
		c := best.Cost
		out.BestCost = &c
	}
	if secs := elapsed.Seconds(); secs > 0 {
		out.SamplesPerSec = float64(st.Samples) / secs
	}
	for i, is := range st.IslandStats {
		out.Islands = append(out.Islands, serialize.JobIslandJSON{
			Kind:            islandKind(spec, i),
			Samples:         is.Samples,
			FeasibleSamples: is.FeasibleSamples,
			MemoHits:        is.MemoHits,
		})
	}
	return out
}
