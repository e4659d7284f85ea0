// Package search runs the island-model orchestrator on top of the Cocco GA:
// K independent GA populations (plus optional SA/greedy "scout" islands)
// explore concurrently over one shared evaluator, exchanging genomes by
// deterministic ring migration every few generations, with versioned
// checkpoint/resume snapshots. One barrier loop schedules the ring, whether
// its islands live in this process or in dist worker processes (Ring).
//
// Determinism contract. Every island's randomness comes from its own
// ChildSeedStream-derived stream (StreamIslands for GA masters beyond
// island 0, StreamScouts for scouts, StreamMigration for migrant
// selection); islands only touch island-local state between migration
// barriers, and the shared evaluator's cost cache is value-deterministic
// (a subgraph's cost is a pure function of its members, whichever island
// computes it first). Migration selects every island's emigrants before
// committing any of them, in island order, so the exchange is a pure
// function of the pre-barrier populations. Consequences, pinned by the
// equivalence suite:
//
//   - Islands=1 with no scouts is bit-identical to core.Run — same best
//     genome, same Stats, same trajectory;
//   - any Workers count replays the same trajectory;
//   - a run checkpointed at a barrier and resumed is bit-identical to an
//     uninterrupted run, except that MemoHits may fall short: the genome
//     memo is per-process and a resumed run refills it (TestCheckpointResume).
package search

import (
	"fmt"
	"os"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/serialize"
)

// ScoutKind selects a non-GA island type.
type ScoutKind int

const (
	// ScoutSA anneals one simulated-annealing chain, paced to consume
	// samples at the same per-round rate as the GA islands.
	ScoutSA ScoutKind = iota
	// ScoutGreedy runs the Halide-style greedy merger once and then only
	// participates in migration, exporting its solution every round.
	ScoutGreedy
)

func (k ScoutKind) String() string {
	switch k {
	case ScoutSA:
		return "sa"
	case ScoutGreedy:
		return "greedy"
	}
	return fmt.Sprintf("ScoutKind(%d)", int(k))
}

// ParseScoutKind is the inverse of ScoutKind.String: "sa" or "greedy". Any
// other name is an error.
func ParseScoutKind(s string) (ScoutKind, error) {
	for _, k := range [...]ScoutKind{ScoutSA, ScoutGreedy} {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("search: unknown scout kind %q (want sa or greedy)", s)
}

// Options configures an orchestrated search.
type Options struct {
	// Core configures each GA island. Seed is the run seed: island 0 uses it
	// directly (that is what makes Islands=1 reproduce core.Run), later
	// islands and scouts derive their own streams from it. MaxSamples is the
	// per-island budget; Workers is the total scoring-goroutine budget,
	// divided across islands.
	Core core.Options
	// Islands is the number of GA islands (default 1).
	Islands int
	// MigrateEvery is the number of optimizer steps between migration
	// barriers (default 5).
	MigrateEvery int
	// Migrants is the number of genomes each island sends around the ring at
	// every barrier (default 2; capped at population-1).
	Migrants int
	// Scouts appends non-GA islands to the migration ring.
	Scouts []ScoutKind
	// Checkpoint, if non-empty, is the path the orchestrator writes its
	// snapshot to at every migration barrier.
	Checkpoint string `json:"-"`
	// MaxRounds, when positive, pauses the run after that many rounds even
	// if sample budget remains; the last barrier's checkpoint is the one to
	// resume from. Like Workers it never shapes the trajectory — a paused-and-
	// resumed run replays the uninterrupted one — so it is not part of the
	// checkpoint fingerprint. Time-boxed jobs run with MaxRounds and resume
	// later.
	MaxRounds int `json:"-"`
	// Progress, when non-nil, is called after every completed round (post-
	// migration, post-checkpoint) with the run so far: the best feasible
	// genome (nil if none yet) and the tally a finished run would return.
	// Both are read-only, and their slices may change after the call
	// returns. Purely observational: like Workers and Trace it never shapes
	// the trajectory and is excluded from the checkpoint fingerprint. The
	// job server (internal/serve) streams these to polling clients.
	Progress func(best *core.Genome, st *Stats) `json:"-"`
}

// Ring caps, checked with core's by Validate.
const (
	MaxRing     = 64    // GA islands plus scouts
	MaxMigrants = 1_000 // per island per barrier
)

// WithDefaults returns the options with every zero field filled: Islands
// 1, MigrateEvery 5, Migrants 2 and core's defaults. A negative or
// out-of-range field stays for Validate to refuse.
func (o Options) WithDefaults() Options {
	o.Core = o.Core.WithDefaults()
	if o.Islands == 0 {
		o.Islands = 1
	}
	if o.MigrateEvery == 0 {
		o.MigrateEvery = 5
	}
	if o.Migrants == 0 {
		o.Migrants = 2
	}
	return o
}

// Validate reports the first rule the options break once WithDefaults has
// filled them: core.Options.Validate's, then the ring's — islands,
// migrate-every and migrants at least 1, at most MaxMigrants migrants,
// at most MaxRing islands plus scouts, and known scout kinds.
func (o Options) Validate() error {
	o = o.WithDefaults()
	if err := o.Core.Validate(); err != nil {
		return err
	}
	switch {
	case o.Islands < 1:
		return fmt.Errorf("search: islands must be >= 1, got %d", o.Islands)
	case o.MigrateEvery < 1:
		return fmt.Errorf("search: migrate-every must be >= 1, got %d", o.MigrateEvery)
	case o.Migrants < 1 || o.Migrants > MaxMigrants:
		return fmt.Errorf("search: migrants must be in [1, %d], got %d", MaxMigrants, o.Migrants)
	case o.Islands > MaxRing || len(o.Scouts) > MaxRing-o.Islands: // no overflowing sum
		return fmt.Errorf("search: islands + scouts must be <= %d", MaxRing)
	}
	for _, k := range o.Scouts {
		if k != ScoutSA && k != ScoutGreedy {
			return fmt.Errorf("search: unknown scout kind %d", k)
		}
	}
	return nil
}

// Stats aggregates a completed orchestrated run.
type Stats struct {
	// Samples, FeasibleSamples, and MemoHits sum over every island.
	Samples         int
	FeasibleSamples int
	MemoHits        int
	// Rounds is the number of completed step rounds; Migrations counts
	// migration barriers executed.
	Rounds     int
	Migrations int
	// Paused reports the run stopped at MaxRounds with sample budget left;
	// resuming from the checkpoint continues it.
	Paused bool
	// BestIsland is the ring index the returned best genome came from.
	BestIsland int
	// IslandStats holds each GA island's optimizer statistics, in ring
	// order. Scout islands contribute a Stats with only Samples and
	// FeasibleSamples filled; the greedy scout's samples are the merger's
	// subgraph costings, none of them a feasible genome.
	IslandStats []core.Stats
	// MigrantsSent and MigrantsReceived count the genomes each ring island
	// exported and imported across all migration barriers, in ring order
	// (nil when the ring never migrated).
	MigrantsSent     []int
	MigrantsReceived []int
}

// island is one ring member: a GA population or a scout.
type island interface {
	// step advances by up to gens optimizer steps (or the scout's equivalent
	// sample budget) and reports whether any work was done.
	step(gens int) bool
	// done reports whether the island's budget is exhausted.
	done() bool
	// emigrants clones out n migrants using the island's migration RNG,
	// without touching island search state.
	emigrants(n int) []*core.Genome
	// immigrate commits migrants from the ring predecessor.
	immigrate(gs []*core.Genome)
	// best returns the island's best feasible genome (nil if none).
	best() *core.Genome
	// stats reports the island's contribution to the aggregate statistics.
	stats() core.Stats
	// snapshot and restore convert the island state to and from the
	// checkpoint wire form.
	snapshot() serialize.IslandJSON
	restore(j serialize.IslandJSON) error
}

// Ring is the island ring a search drives, barrier by barrier. In one
// process it is a RingHost over the whole ring; internal/search/dist
// implements it over a fleet of worker processes that each host a slice.
// Both run under the one loop behind RunOrResumeOn — step, migrate,
// checkpoint, pause, aggregation, resume — so any partitioning of the ring
// replays the in-process trajectory by construction.
//
// The loop calls one Step per round; after a Step that did work, Migrate
// (on a ring of two or more islands), Snapshots when checkpointing, and
// Results when Options.Progress is set; Results once more at the end.
type Ring interface {
	// Step advances every island by one round of MigrateEvery optimizer
	// steps (or a scout's equivalent). It reports whether any island did
	// work and whether every island's budget is now exhausted.
	Step() (progressed, done bool, err error)
	// Migrate runs one whole migration barrier: every island's emigrants
	// are selected before any is committed to its ring successor. It
	// returns how many genomes each island sent, in ring order.
	Migrate() (sent []int, err error)
	// Snapshots serializes every island, in ring order.
	Snapshots() ([]serialize.IslandJSON, error)
	// Results returns every island's best feasible genome (nil for none)
	// and statistics, in ring order.
	Results() ([]*core.Genome, []core.Stats, error)
}

// OpenRing builds the ring a search runs on: restored from cp's island
// snapshots, which have already been checked against the search's graph and
// options, or fresh when cp is nil.
type OpenRing func(cp *serialize.CheckpointJSON) (Ring, error)

// Run executes an orchestrated search from scratch.
func Run(ev *eval.Evaluator, opt Options) (*core.Genome, *Stats, error) {
	return RunOrResume(ev, opt, "")
}

// RunOrResume resumes from resumePath when the file exists, otherwise starts
// fresh. This is the cmd-level entry point: crash-interrupted jobs restart
// with the same command line and pick up where the last checkpoint left off.
func RunOrResume(ev *eval.Evaluator, opt Options, resumePath string) (*core.Genome, *Stats, error) {
	return RunOrResumeOn(ev, opt, resumePath, nil)
}

// RunOrResumeOn is RunOrResume over the ring open builds; a nil open runs
// the whole ring in this process.
func RunOrResumeOn(ev *eval.Evaluator, opt Options, resumePath string, open OpenRing) (*core.Genome, *Stats, error) {
	l, err := newLoop(ev, opt, open)
	if err != nil {
		return nil, nil, err
	}
	if resumePath != "" {
		data, err := os.ReadFile(resumePath)
		if err == nil {
			if err := l.resume(data); err != nil {
				// The snapshot never loaded (corrupt, truncated, or for a
				// different configuration) — as opposed to a search that
				// resumed fine but ended without a feasible genome, which
				// reports Stats. Name the file and the way out.
				return nil, nil, fmt.Errorf("search: resume from checkpoint %s: %w (delete the file to restart the search from scratch)", resumePath, err)
			}
			return l.run()
		}
		if !os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("search: read checkpoint: %w", err)
		}
	}
	if err := l.start(nil); err != nil {
		return nil, nil, err
	}
	return l.run()
}

// loop is the ring's barrier schedule and its counters.
type loop struct {
	ev   *eval.Evaluator
	opt  Options // normalized by WithDefaults
	size int     // ring length: GA islands plus scouts
	open OpenRing
	ring Ring

	rounds     int
	migrations int
	paused     bool
	sent, recv []int // per ring island, allocated at the first barrier
}

func newLoop(ev *eval.Evaluator, opt Options, open OpenRing) (*loop, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.WithDefaults()
	if opt.MaxRounds > 0 && opt.Checkpoint == "" {
		// A pause without a snapshot discards the whole trajectory — the
		// remaining budget could never be resumed. Always a mistake.
		return nil, fmt.Errorf("search: MaxRounds requires a Checkpoint path to resume from")
	}
	l := &loop{ev: ev, opt: opt, size: opt.Islands + len(opt.Scouts), open: open}
	if l.open == nil {
		l.open = l.openLocal
	}
	return l, nil
}

// openLocal builds the whole ring in this process.
func (l *loop) openLocal(cp *serialize.CheckpointJSON) (Ring, error) {
	h, err := NewRingHost(l.ev, l.opt, 0, l.size)
	if err != nil {
		return nil, err
	}
	if cp != nil {
		if err := h.Restore(cp.Islands); err != nil {
			return nil, err
		}
	}
	return localRing{h}, nil
}

// resume decodes a checkpoint, checks it against the graph and options,
// and starts the loop from it.
func (l *loop) resume(snapshot []byte) error {
	cp, err := serialize.DecodeCheckpoint(snapshot)
	if err != nil {
		return err
	}
	if err := CheckCheckpoint(cp, l.ev.Graph().Name, l.opt); err != nil {
		return err
	}
	return l.start(cp)
}

// start opens the ring, fresh or from cp, and restores the barrier
// counters cp carries.
func (l *loop) start(cp *serialize.CheckpointJSON) error {
	ring, err := l.open(cp)
	if err != nil {
		return err
	}
	l.ring = ring
	if cp != nil {
		l.rounds, l.migrations = cp.Round, cp.Migrations
		l.sent, l.recv = cp.MigrantsSent, cp.MigrantsReceived
	}
	return nil
}

// run holds barriers until no island progresses or MaxRounds pauses the
// run, then aggregates the result.
func (l *loop) run() (*core.Genome, *Stats, error) {
	startRound := l.rounds
	for {
		progressed, done, err := l.ring.Step()
		if err != nil {
			return nil, nil, err
		}
		if !progressed {
			break
		}
		l.rounds++
		if l.size > 1 {
			if err := l.migrate(); err != nil {
				return nil, nil, err
			}
		}
		if l.opt.Checkpoint != "" {
			if err := l.save(); err != nil {
				return nil, nil, err
			}
		}
		if l.opt.Progress != nil {
			// After the checkpoint write, so a reported round is also a
			// durable one whenever checkpointing is on.
			best, st, err := l.tally()
			if err != nil {
				return nil, nil, err
			}
			l.opt.Progress(best, st)
		}
		if l.opt.MaxRounds > 0 && l.rounds-startRound >= l.opt.MaxRounds {
			// Pause: this barrier's checkpoint lets the job resume later.
			// If the final allowed round happened to exhaust every island,
			// the run is simply complete — not paused.
			l.paused = !done
			break
		}
	}
	best, st, err := l.tally()
	if err != nil {
		return nil, nil, err
	}
	if best == nil {
		if l.paused {
			// A pause is not a failed search: the checkpoint is resumable and
			// budget remains. The distinct error (plus Stats.Paused) keeps
			// callers from reading it as exhaustion.
			return nil, st, fmt.Errorf("search: paused after %d rounds with no feasible genome yet (%d samples); resume to continue",
				st.Rounds, st.Samples)
		}
		return nil, st, fmt.Errorf("search: no feasible genome found in %d samples across %d islands",
			st.Samples, l.size)
	}
	return best, st, nil
}

// migrate runs one barrier on the ring and counts its exchange: each
// island's migrants go to its ring successor.
func (l *loop) migrate() error {
	sent, err := l.ring.Migrate()
	if err != nil {
		return err
	}
	if l.sent == nil {
		l.sent, l.recv = make([]int, l.size), make([]int, l.size)
	}
	for i, n := range sent {
		l.sent[i] += n
		l.recv[(i+1)%l.size] += n
	}
	l.migrations++
	return nil
}

// tally aggregates the ring's islands the way every report does:
// AggregateBest crowns the winner, the sample counters sum over islands.
func (l *loop) tally() (*core.Genome, *Stats, error) {
	bests, islands, err := l.ring.Results()
	if err != nil {
		return nil, nil, err
	}
	st := &Stats{
		Rounds: l.rounds, Migrations: l.migrations, Paused: l.paused,
		IslandStats: islands, MigrantsSent: l.sent, MigrantsReceived: l.recv,
	}
	best, bestIdx := AggregateBest(bests)
	st.BestIsland = bestIdx
	for _, is := range islands {
		st.Samples += is.Samples
		st.FeasibleSamples += is.FeasibleSamples
		st.MemoHits += is.MemoHits
	}
	return best, st, nil
}

// localRing is a RingHost over the whole ring, driven in this process.
// Migration hands each emigrant clone itself to the successor island.
type localRing struct{ h *RingHost }

func (r localRing) Step() (progressed, done bool, err error) {
	for _, p := range r.h.Step(r.h.opt.MigrateEvery) {
		progressed = progressed || p
	}
	done = true
	for _, d := range r.h.Done() {
		done = done && d
	}
	return progressed, done, nil
}

func (r localRing) Migrate() ([]int, error) {
	out := r.h.Emigrants()
	sent := make([]int, len(out))
	for i, gs := range out {
		if err := r.h.Immigrate((i+1)%len(out), gs); err != nil {
			return nil, err
		}
		sent[i] = len(gs)
	}
	return sent, nil
}

func (r localRing) Snapshots() ([]serialize.IslandJSON, error) { return r.h.Snapshots(), nil }

func (r localRing) Results() ([]*core.Genome, []core.Stats, error) {
	return r.h.Bests(), r.h.Stats(), nil
}

// AggregateBest picks the run's winner from per-island bests in ring order:
// strict cost comparison, first island wins ties. Returns (nil, -1) when no
// island has a feasible best.
func AggregateBest(bests []*core.Genome) (*core.Genome, int) {
	var best *core.Genome
	idx := -1
	for i, b := range bests {
		if b != nil && (best == nil || b.Cost < best.Cost) {
			best, idx = b, i
		}
	}
	return best, idx
}
