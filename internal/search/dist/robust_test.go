package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"cocco/internal/core"
	"cocco/internal/hw"
	"cocco/internal/search"
)

// silentListener accepts connections and never writes a byte — the shape of
// a hung or half-open peer.
func silentListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	return ln.Addr().String()
}

// TestWireReadTimeout pins the satellite bugfix at the wire layer: a read
// from a silent peer fails within the deadline instead of blocking forever,
// the error names the operation and duration, and the underlying net.Error
// stays detectable through every wrapper (including ErrTruncated).
func TestWireReadTimeout(t *testing.T) {
	addr := silentListener(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := newWire(conn, 50*time.Millisecond)
	start := time.Now()
	_, _, err = w.read()
	if err == nil {
		t.Fatal("read from silent peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("read took %v; the deadline did not fire", elapsed)
	}
	if !strings.Contains(err.Error(), "timed out after 50ms") {
		t.Errorf("timeout error does not name the deadline: %v", err)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("net deadline not detectable through the wrapper chain: %v", err)
	}
}

// TestWireZeroTimeoutSetsNoDeadline: timeout 0 must leave the connection
// deadline-free (the mode every determinism test runs in).
func TestWireZeroTimeoutSetsNoDeadline(t *testing.T) {
	addr := silentListener(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := newWire(conn, 0)
	done := make(chan error, 1)
	go func() {
		_, _, err := w.read()
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("read returned (%v) with no deadline and no data", err)
	case <-time.After(300 * time.Millisecond):
		// Still blocked: exactly right.
	}
}

// TestCoordinatorTimeoutNamesWorker: a fleet where one worker never answers
// the handshake fails the run within the I/O timeout, and the error carries
// that worker's address so an operator knows which machine to look at.
func TestCoordinatorTimeoutNamesWorker(t *testing.T) {
	model := "mobilenetv2"
	good := startWorker(t, model)
	silent := silentListener(t)
	start := time.Now()
	_, _, err := Run(evaluatorFor(t, model), Options{
		Search:    testOptions(),
		Workers:   []string{good, silent},
		IOTimeout: 200 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("run with a silent worker succeeded")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("run took %v to fail; deadline did not bound the hang", elapsed)
	}
	if !strings.Contains(err.Error(), silent) {
		t.Errorf("error does not name the silent worker %s: %v", silent, err)
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Errorf("error does not mention the timeout: %v", err)
	}
}

// TestCoordinatorReleasesWorkersOnHandshakeFailure pins the close-once
// satellite behaviorally: when one worker of a mixed fleet refuses the
// handshake (fingerprint mismatch), the coordinator must close every peer
// connection — workers serve one session at a time, so a leaked connection
// would leave the good workers stuck in a dead session and the follow-up run
// would hang at hello instead of succeeding.
func TestCoordinatorReleasesWorkersOnHandshakeFailure(t *testing.T) {
	good := startWorkers(t, "mobilenetv2", 2)
	bad := startWorker(t, "resnet50") // different model → fingerprint mismatch

	_, _, err := Run(evaluatorFor(t, "mobilenetv2"), Options{
		Search:  testOptions(),
		Workers: []string{good[0], good[1], bad},
	})
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("mixed fleet: got %v, want fingerprint mismatch", err)
	}

	// The IOTimeout turns a leak regression into a fast failure here rather
	// than a suite hang.
	best, _, err := Run(evaluatorFor(t, "mobilenetv2"), Options{
		Search:    testOptions(),
		Workers:   good,
		IOTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("good fleet after failed handshake: %v (leaked worker sessions?)", err)
	}
	if best == nil {
		t.Fatal("good fleet found no feasible genome")
	}
}

// TestProgressRejectedInDist: Options.Progress is observation-only and not
// forwarded across the wire; like Core.Init and Core.Trace it must be
// refused loudly rather than silently dropped.
func TestProgressRejectedInDist(t *testing.T) {
	opt := testOptions()
	opt.Progress = func(*core.Genome, *search.Stats) {}
	_, _, err := Run(evaluatorFor(t, "mobilenetv2"), Options{
		Search:  opt,
		Workers: []string{"127.0.0.1:1"},
	})
	if err == nil || !strings.Contains(err.Error(), "Progress") {
		t.Errorf("got %v, want Progress rejection", err)
	}
}

// TestWorkerRefusesInadmissibleAssign: an assign frame whose options pass
// the fingerprint check but break an admission rule gets an error naming
// the field, before the worker allocates a population, and the worker then
// serves a valid session.
func TestWorkerRefusesInadmissibleAssign(t *testing.T) {
	addr := startWorker(t, "mobilenetv2")
	ev := evaluatorFor(t, "mobilenetv2")
	cases := []struct {
		name string
		mut  func(*search.Options)
		want string
	}{
		{"population 1", func(o *search.Options) { o.Core.Population = 1 }, "population"},
		{"population 2e9", func(o *search.Options) { o.Core.Population = 2_000_000_000 }, "population"},
		{"samples -1", func(o *search.Options) { o.Core.MaxSamples = -1 }, "samples"},
		{"ring 65", func(o *search.Options) { o.Islands = search.MaxRing }, "islands + scouts"},
		{"migrants 1001", func(o *search.Options) { o.Migrants = search.MaxMigrants + 1 }, "migrants"},
		{"metric 7", func(o *search.Options) { o.Core.Objective.Metric = 7 }, "metric"},
		{"buffer kind 7", func(o *search.Options) { o.Core.Mem.Kind = 7 }, "buffer kind"},
		{"scout kind 9", func(o *search.Options) { o.Scouts = []search.ScoutKind{9} }, "scout kind"},
		{"range of 2^20", func(o *search.Options) {
			o.Core.Mem = core.MemSearch{Search: true, Kind: hw.SharedBuffer, Global: hw.MemRange{Min: 1, Max: 1 << 20, Step: 1}}
		}, "at most 4096 candidates"},
		{"range from 0", func(o *search.Options) {
			o.Core.Mem = core.MemSearch{Search: true, Kind: hw.SharedBuffer, Global: hw.MemRange{Min: 0, Max: hw.MiB, Step: hw.KiB}}
		}, "minimum must be >= 1"},
	}
	hello := helloMsg{Proto: ProtocolVersion, Fingerprint: evFingerprint(ev)}
	for _, tc := range cases {
		opt := testOptions() // one SA scout: 64 islands make a ring of 65
		tc.mut(&opt)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		w := newWire(conn, 30*time.Second)
		if err := w.request(MsgHello, hello, MsgHelloAck, &helloMsg{}); err != nil {
			t.Fatalf("%s: hello: %v", tc.name, err)
		}
		assign := assignMsg{Options: opt, Config: search.Fingerprint(opt), Lo: 0, Hi: 1}
		err = w.request(MsgAssign, assign, MsgAssignAck, nil)
		conn.Close()
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "fingerprint") {
			t.Errorf("%s: got %v, want a refusal naming %q", tc.name, err, tc.want)
		}
	}
	best, _, err := Run(ev, Options{Search: testOptions(), Workers: []string{addr}, IOTimeout: 30 * time.Second})
	if err != nil || best == nil {
		t.Fatalf("valid session after the refusals: best %v, err %v", best, err)
	}
}

// TestWorkerAnswersOtherProtocolVersion: a hello framed in another protocol
// version gets an error frame naming the mismatch, so a peer of that
// version reports it instead of a bare EOF, and the worker then serves a
// valid session.
func TestWorkerAnswersOtherProtocolVersion(t *testing.T) {
	addr := startWorker(t, "mobilenetv2")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := EncodeFrame(MsgHello, []byte(`{}`))
	binary.LittleEndian.PutUint32(frame[len(frameMagic):], ProtocolVersion-1)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(bufio.NewReader(conn))
	if err != nil || typ != MsgError || !strings.Contains(string(payload), "unsupported protocol version") {
		t.Fatalf("got frame %d %q (%v), want an error frame naming the protocol version", typ, payload, err)
	}
	best, _, err := Run(evaluatorFor(t, "mobilenetv2"), Options{Search: testOptions(), Workers: []string{addr}, IOTimeout: 30 * time.Second})
	if err != nil || best == nil {
		t.Fatalf("valid session after the mismatch: best %v, err %v", best, err)
	}
}

// TestWorkerDrain pins the coccow-signal satellite at the library layer:
// closing ServeConfig.Stop makes the worker refuse new sessions, abort the
// in-flight session at its next frame boundary with an error frame to the
// coordinator, and return ErrDraining.
func TestWorkerDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	served := make(chan error, 1)
	go func() {
		served <- ServeWith(ln, evaluatorFor(t, "mobilenetv2"), ServeConfig{Workers: 1, Stop: stop})
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := newWire(conn, 0)
	hello := helloMsg{Proto: ProtocolVersion, Fingerprint: evFingerprint(evaluatorFor(t, "mobilenetv2"))}
	var ack helloMsg
	if err := w.request(MsgHello, hello, MsgHelloAck, &ack); err != nil {
		t.Fatalf("handshake: %v", err)
	}

	// Worker is now blocked reading our next frame; drain it.
	close(stop)
	t2, payload, err := ReadFrame(w.r)
	if err != nil {
		t.Fatalf("expected an error frame before the close, got %v", err)
	}
	if t2 != MsgError || !strings.Contains(string(payload), "draining") {
		t.Errorf("got frame type %d payload %q, want MsgError mentioning draining", t2, payload)
	}

	select {
	case err := <-served:
		if !errors.Is(err, ErrDraining) {
			t.Errorf("ServeWith returned %v, want ErrDraining", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeWith did not return after Stop closed")
	}

	// And no new sessions: the listener is closed.
	if _, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		t.Error("worker accepted a new connection while draining")
	}
}

// TestDistWithIOTimeoutStillDeterministic: turning deadlines on (a healthy
// fleet never hits them) must not perturb the bit-exact equivalence with the
// single-process run.
func TestDistWithIOTimeoutStillDeterministic(t *testing.T) {
	model := "mobilenetv2"
	opt := testOptions()
	wantBest, wantStats, err := search.Run(evaluatorFor(t, model), opt)
	if err != nil {
		t.Fatal(err)
	}
	gotBest, gotStats, err := Run(evaluatorFor(t, model), Options{
		Search:    opt,
		Workers:   startWorkers(t, model, 2),
		IOTimeout: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameGenome(t, "deadlined", wantBest, gotBest)
	sameStats(t, "deadlined", wantStats, gotStats)
}
