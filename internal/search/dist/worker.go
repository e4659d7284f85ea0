package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync/atomic"
	"time"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/search"
	"cocco/internal/serialize"
)

// ErrDraining reports that the worker loop stopped because its ServeConfig
// Stop channel closed (e.g. coccow caught SIGINT/SIGTERM) rather than
// because the listener died. The in-flight session, if any, was aborted at
// its next frame boundary with a best-effort MsgError to the coordinator.
var ErrDraining = errors.New("dist: worker draining (shutdown signal)")

// ServeConfig tunes a worker's ServeWith loop.
type ServeConfig struct {
	// Workers is the scoring-goroutine budget (0 = all CPUs).
	Workers int
	// IOTimeout, when positive, deadlines every frame read and write on a
	// coordinator session; see Options.IOTimeout for how to size it. Zero
	// disables deadlines. Note a worker legitimately sits in a blocking
	// read for as long as the SLOWEST worker in the fleet takes a
	// MigrateEvery-round step, so this must comfortably exceed that.
	IOTimeout time.Duration
	// Stop, when non-nil, drains the worker once closed: the accept loop
	// refuses new sessions and an in-flight session is aborted at its next
	// frame boundary (the current frame handler — possibly a multi-
	// generation Step — finishes first). ServeWith then returns ErrDraining.
	Stop <-chan struct{}
}

// ServeWith accepts coordinator sessions on ln, one at a time, each driving
// a fresh search.RingHost over this process's evaluator; cfg sets the
// scoring-goroutine budget, the frame deadlines, and the drain signal.
// ServeWith returns when the listener closes (ErrDraining if cfg.Stop closed
// it); a failed session is logged and the worker goes back to accepting, so
// a crashed-and-restarted coordinator can reconnect and resume from its
// checkpoint.
func ServeWith(ln net.Listener, ev *eval.Evaluator, cfg ServeConfig) error {
	var draining atomic.Bool
	if cfg.Stop != nil {
		stopped := make(chan struct{})
		defer close(stopped)
		go func() {
			select {
			case <-cfg.Stop:
				draining.Store(true)
				// Unblock Accept; serveConn notices draining on its own.
				ln.Close()
			case <-stopped:
			}
		}()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if draining.Load() {
				return ErrDraining
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if err := serveConn(conn, ev, cfg, &draining); err != nil && err != io.EOF {
			log.Printf("dist worker: session from %s ended: %v", conn.RemoteAddr(), err)
		}
		if draining.Load() {
			return ErrDraining
		}
	}
}

// session is one coordinator connection's state.
type session struct {
	w       *wire
	ev      *eval.Evaluator
	workers int
	host    *search.RingHost
}

func serveConn(conn net.Conn, ev *eval.Evaluator, cfg ServeConfig, draining *atomic.Bool) error {
	defer conn.Close()
	s := &session{w: newWire(conn, cfg.IOTimeout), ev: ev, workers: cfg.Workers}
	if cfg.Stop != nil {
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-cfg.Stop:
				if draining != nil {
					// Store-before-kick so the read loop can't observe the
					// deadline error while draining still reads false.
					draining.Store(true)
				}
				// Kick the session out of its blocking read. Re-arm the
				// immediate deadline in a loop because the read path re-sets
				// a future deadline per frame when IOTimeout > 0.
				for {
					_ = conn.SetReadDeadline(time.Now())
					select {
					case <-done:
						return
					case <-time.After(50 * time.Millisecond):
					}
				}
			case <-done:
			}
		}()
	}
	for {
		t, payload, err := s.w.read()
		if err != nil {
			if draining != nil && draining.Load() {
				// Tell the coordinator why the session died before it sees a
				// bare connection reset; best-effort, the socket may be gone.
				_ = writeMsg(s.w, MsgError, errorMsg{Err: ErrDraining.Error()})
				return ErrDraining
			}
			if errors.Is(err, ErrVersion) {
				// The frame is in this build's version, which the peer cannot
				// read either: it reports the mismatch instead of a bare EOF.
				_ = writeMsg(s.w, MsgError, errorMsg{Err: err.Error()})
			}
			return err
		}
		if err := s.handle(t, payload); err != nil {
			// Best-effort error frame, then drop the session: after a refused
			// hello/assign or a failed handler the shared state is suspect.
			_ = writeMsg(s.w, MsgError, errorMsg{Err: err.Error()})
			return err
		}
	}
}

func (s *session) handle(t MsgType, payload []byte) error {
	switch t {
	case MsgHello:
		var h helloMsg
		if err := json.Unmarshal(payload, &h); err != nil {
			return fmt.Errorf("dist: decode hello: %w", err)
		}
		if local := evFingerprint(s.ev); h.Fingerprint != local {
			return fmt.Errorf("dist: evaluator fingerprint mismatch:\n  coordinator %s\n  worker      %s", h.Fingerprint, local)
		}
		return writeMsg(s.w, MsgHelloAck, helloMsg{Proto: ProtocolVersion, Fingerprint: evFingerprint(s.ev)})

	case MsgAssign:
		var a assignMsg
		if err := json.Unmarshal(payload, &a); err != nil {
			return fmt.Errorf("dist: decode assign: %w", err)
		}
		opt := a.Options
		opt.Core.Workers = s.workers
		if local := search.Fingerprint(opt); local != a.Config {
			return fmt.Errorf("dist: options fingerprint mismatch after decode:\n  coordinator %s\n  worker      %s", a.Config, local)
		}
		// NewRingHost refuses inadmissible options before building islands.
		host, err := search.NewRingHost(s.ev, opt, a.Lo, a.Hi)
		if err != nil {
			return err
		}
		if a.Islands != nil {
			if err := host.Restore(a.Islands); err != nil {
				return err
			}
		}
		s.host = host
		return writeMsg(s.w, MsgAssignAck, struct{}{})

	case MsgStep:
		if s.host == nil {
			return errors.New("dist: step before assign")
		}
		progressed := s.host.Step(s.host.Options().MigrateEvery)
		return writeMsg(s.w, MsgStepped, steppedMsg{Progressed: progressed, Done: s.host.Done()})

	case MsgEmigrantsReq:
		if s.host == nil {
			return errors.New("dist: emigrants before assign")
		}
		out := s.host.Emigrants()
		msg := emigrantsMsg{Out: make([][]serialize.GenomeJSON, len(out))}
		for i, gs := range out {
			for _, g := range gs {
				msg.Out[i] = append(msg.Out[i], *search.EncodeGenome(g, true))
			}
		}
		return writeMsg(s.w, MsgEmigrants, msg)

	case MsgCommit:
		if s.host == nil {
			return errors.New("dist: commit before assign")
		}
		var c commitMsg
		if err := json.Unmarshal(payload, &c); err != nil {
			return fmt.Errorf("dist: decode commit: %w", err)
		}
		gr := s.ev.Graph()
		for _, ci := range c.Islands {
			gs := make([]*core.Genome, 0, len(ci.Genomes))
			for k := range ci.Genomes {
				g, err := search.DecodeGenome(gr, &ci.Genomes[k], false)
				if err != nil {
					return fmt.Errorf("dist: commit island %d genome %d: %w", ci.Island, k, err)
				}
				gs = append(gs, g)
			}
			if err := s.host.Immigrate(ci.Island, gs); err != nil {
				return err
			}
		}
		return nil // one-way

	case MsgSnapshotReq:
		if s.host == nil {
			return errors.New("dist: snapshot before assign")
		}
		return writeMsg(s.w, MsgSnapshot, snapshotMsg{Islands: s.host.Snapshots()})

	case MsgResultReq:
		if s.host == nil {
			return errors.New("dist: result before assign")
		}
		msg := resultMsg{Stats: s.host.Stats()}
		for _, b := range s.host.Bests() {
			msg.Bests = append(msg.Bests, search.EncodeGenome(b, true))
		}
		return writeMsg(s.w, MsgResult, msg)

	case MsgError:
		var e errorMsg
		_ = json.Unmarshal(payload, &e)
		return fmt.Errorf("dist: coordinator error: %s", e.Err)

	default:
		return fmt.Errorf("dist: unexpected message type %d", t)
	}
}
