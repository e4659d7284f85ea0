package dist

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/search"
	"cocco/internal/serialize"
)

// Options configures a distributed run.
type Options struct {
	// Search is the full search configuration — identical to what a
	// single-process search.Run would take. Core.Workers is NOT sent to
	// workers; each worker process spends its own -workers budget.
	Search search.Options
	// Workers lists worker addresses (host:port), each at most once. The
	// ring is split into contiguous slices across them in order: the first
	// ring%K workers host one extra island.
	Workers []string
	// DialTimeout bounds each worker connection attempt (default 10s).
	DialTimeout time.Duration
	// IOTimeout, when positive, sets a deadline on every frame read and
	// write to a worker, so a hung or half-open socket fails the round
	// with an actionable per-worker error instead of stalling the
	// migration barrier forever. It must exceed the longest legitimate
	// silence — the slowest worker's MigrateEvery-round step. Zero
	// disables deadlines (tests, trusted local fleets); cmd/cocco
	// defaults it to a few minutes.
	IOTimeout time.Duration
}

// peer is one connected worker and its ring slice.
type peer struct {
	addr   string
	w      *wire
	lo, hi int
}

// hosts checks that every per-island list of a reply has one entry per
// island p hosts.
func (p *peer) hosts(what string, counts ...int) error {
	for _, n := range counts {
		if n != p.hi-p.lo {
			return fmt.Errorf("sent %d %s, hosts %d islands", n, what, p.hi-p.lo)
		}
	}
	return nil
}

// splitRing partitions ring islands into contiguous slices over k workers,
// first slices one larger when ring%k != 0. Mirrors splitWorkers' remainder
// policy so "7 islands over 5 workers" wastes nobody.
func splitRing(ring, k int) [][2]int {
	out := make([][2]int, k)
	per, rem := ring/k, ring%k
	lo := 0
	for i := range out {
		n := per
		if i < rem {
			n++
		}
		out[i] = [2]int{lo, lo + n}
		lo += n
	}
	return out
}

// coordinator is the fleet's search.Ring: it fans each barrier call out to
// every worker and reassembles the replies in ring order. When to step,
// migrate, checkpoint, or pause, and how results aggregate, is the search
// loop's business, shared with in-process runs.
type coordinator struct {
	ev    *eval.Evaluator
	opt   Options
	sopt  search.Options // normalized
	ring  int
	peers []*peer
}

// Run executes a distributed search from scratch. With the same
// search.Options, any worker partitioning is bit-identical to the
// single-process search.Run.
func Run(ev *eval.Evaluator, opt Options) (*core.Genome, *search.Stats, error) {
	return RunOrResume(ev, opt, "")
}

// RunOrResume resumes from resumePath when the file exists, otherwise starts
// fresh: search.RunOrResume over the fleet. The checkpoint format is shared,
// so a fleet resumes a single-process run's file and vice versa, under any
// partitioning.
func RunOrResume(ev *eval.Evaluator, opt Options, resumePath string) (*core.Genome, *search.Stats, error) {
	c, err := newCoordinator(ev, opt)
	if err != nil {
		return nil, nil, err
	}
	defer c.close()
	return search.RunOrResumeOn(ev, opt.Search, resumePath, c.open)
}

// newCoordinator checks the options; it dials nobody.
func newCoordinator(ev *eval.Evaluator, opt Options) (*coordinator, error) {
	sopt := opt.Search.WithDefaults()
	if sopt.Core.Init != nil || sopt.Core.Trace != nil {
		return nil, errors.New("dist: Core.Init and Core.Trace are not supported in distributed runs")
	}
	if sopt.Progress != nil {
		// Silently dropping the callback would look like a stalled run to a
		// caller that relies on it; refuse loudly like Init/Trace.
		return nil, errors.New("dist: Options.Progress is not supported in distributed runs")
	}
	if len(opt.Workers) == 0 {
		return nil, errors.New("dist: no worker addresses")
	}
	ring := sopt.Islands + len(sopt.Scouts)
	if len(opt.Workers) > ring {
		return nil, fmt.Errorf("dist: %d workers for a %d-island ring; grow -islands/-scouts or drop workers", len(opt.Workers), ring)
	}
	seen := make(map[string]bool, len(opt.Workers))
	for _, addr := range opt.Workers {
		if seen[addr] {
			// A worker serves one session at a time, so it would never read
			// the second connection's hello.
			return nil, fmt.Errorf("dist: worker %s listed twice; list each worker process once", addr)
		}
		seen[addr] = true
	}
	return &coordinator{ev: ev, opt: opt, sopt: sopt, ring: ring}, nil
}

// open dials every worker, checks evaluator fingerprints both ways, and
// assigns each worker its ring slice — with the slice's island snapshots
// when resuming cp.
func (c *coordinator) open(cp *serialize.CheckpointJSON) (search.Ring, error) {
	dialTimeout := c.opt.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 10 * time.Second
	}
	for i, s := range splitRing(c.ring, len(c.opt.Workers)) {
		addr := c.opt.Workers[i]
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			return nil, fmt.Errorf("dist: worker %s: %w", addr, err)
		}
		c.peers = append(c.peers, &peer{addr: addr, w: newWire(conn, c.opt.IOTimeout), lo: s[0], hi: s[1]})
	}

	hello := helloMsg{Proto: ProtocolVersion, Fingerprint: evFingerprint(c.ev)}
	wireOpt := encodeOptions(c.sopt)
	config := search.Fingerprint(c.sopt)
	err := c.each(func(p *peer) error {
		var ack helloMsg
		if err := p.w.request(MsgHello, hello, MsgHelloAck, &ack); err != nil {
			return err
		}
		if ack.Fingerprint != hello.Fingerprint {
			return fmt.Errorf("evaluator fingerprint mismatch:\n  coordinator %s\n  worker      %s", hello.Fingerprint, ack.Fingerprint)
		}
		assign := assignMsg{Options: wireOpt, Config: config, Lo: p.lo, Hi: p.hi}
		if cp != nil {
			assign.Round, assign.Migrations = cp.Round, cp.Migrations
			assign.Islands = cp.Islands[p.lo:p.hi]
		}
		return p.w.request(MsgAssign, assign, MsgAssignAck, nil)
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// close tears down every worker connection. RunOrResume defers it, so it
// runs exactly once on every path — a failed dial or handshake (including a
// partial fleet where some workers connected), a failed round, a normal
// finish. Closing is also what releases the surviving workers: their
// sequential frame loops see EOF and go back to accepting.
func (c *coordinator) close() {
	for _, p := range c.peers {
		p.w.c.Close()
	}
}

// each runs fn once per peer, concurrently, and joins the errors, each
// annotated with its worker's address.
func (c *coordinator) each(fn func(p *peer) error) error {
	errs := make([]error, len(c.peers))
	var wg sync.WaitGroup
	for i, p := range c.peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			if err := fn(p); err != nil {
				errs[i] = fmt.Errorf("dist: worker %s: %w", p.addr, err)
			}
		}(i, p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Step steps every worker's islands one round. The step frame carries no
// body: each worker steps the MigrateEvery it was assigned.
func (c *coordinator) Step() (progressed, done bool, err error) {
	prog, fin := make([]bool, c.ring), make([]bool, c.ring)
	err = c.each(func(p *peer) error {
		var st steppedMsg
		if err := p.w.request(MsgStep, struct{}{}, MsgStepped, &st); err != nil {
			return err
		}
		if err := p.hosts("step reports", len(st.Progressed), len(st.Done)); err != nil {
			return err
		}
		copy(prog[p.lo:], st.Progressed)
		copy(fin[p.lo:], st.Done)
		return nil
	})
	if err != nil {
		return false, false, err
	}
	done = true
	for i := range prog {
		progressed = progressed || prog[i]
		done = done && fin[i]
	}
	return progressed, done, nil
}

// Migrate holds the barrier: every worker's emigrant payloads are collected
// before any commit is sent. Each payload then goes, still encoded, to the
// worker hosting its ring successor, in ascending source order as the
// in-process ring commits. Commits need no reply: a worker applies them
// before any later request on the same ordered connection.
func (c *coordinator) Migrate() ([]int, error) {
	out := make([][]serialize.GenomeJSON, c.ring)
	err := c.each(func(p *peer) error {
		var em emigrantsMsg
		if err := p.w.request(MsgEmigrantsReq, struct{}{}, MsgEmigrants, &em); err != nil {
			return err
		}
		if err := p.hosts("emigrant sets", len(em.Out)); err != nil {
			return err
		}
		copy(out[p.lo:], em.Out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = c.each(func(p *peer) error {
		var m commitMsg
		for i, gs := range out {
			if dest := (i + 1) % c.ring; dest >= p.lo && dest < p.hi {
				m.Islands = append(m.Islands, commitIsland{Island: dest, Genomes: gs})
			}
		}
		return writeMsg(p.w, MsgCommit, m)
	})
	if err != nil {
		return nil, err
	}
	sent := make([]int, c.ring)
	for i, gs := range out {
		sent[i] = len(gs)
	}
	return sent, nil
}

// Snapshots gathers every worker's island snapshots in ring order. Commits
// precede the snapshot request on each ordered connection, so every
// snapshot is post-migration.
func (c *coordinator) Snapshots() ([]serialize.IslandJSON, error) {
	islands := make([]serialize.IslandJSON, c.ring)
	err := c.each(func(p *peer) error {
		var s snapshotMsg
		if err := p.w.request(MsgSnapshotReq, struct{}{}, MsgSnapshot, &s); err != nil {
			return err
		}
		if err := p.hosts("snapshots", len(s.Islands)); err != nil {
			return err
		}
		copy(islands[p.lo:], s.Islands)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return islands, nil
}

// Results gathers every worker's island statistics and best genomes in ring
// order.
func (c *coordinator) Results() ([]*core.Genome, []core.Stats, error) {
	bests, stats := make([]*core.Genome, c.ring), make([]core.Stats, c.ring)
	err := c.each(func(p *peer) error {
		var r resultMsg
		if err := p.w.request(MsgResultReq, struct{}{}, MsgResult, &r); err != nil {
			return err
		}
		if err := p.hosts("results", len(r.Stats), len(r.Bests)); err != nil {
			return err
		}
		copy(stats[p.lo:], r.Stats)
		for j, b := range r.Bests {
			g, err := search.DecodeGenome(c.ev.Graph(), b, true)
			if err != nil {
				return fmt.Errorf("island %d best: %w", p.lo+j, err)
			}
			bests[p.lo+j] = g
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return bests, stats, nil
}
