package dist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// frameWriter is the minimal sink writeMsg needs.
type frameWriter interface {
	writeFrame(t MsgType, payload []byte) error
}

// wire wraps one connection with buffered reads, mutex-serialized writes,
// and optional per-frame I/O deadlines. The write mutex pairs each frame's
// write deadline with its single Write, so two writers on one connection
// could neither interleave frame bytes nor re-arm each other's deadline.
// Each connection has one writer at a time today, so the lock is
// uncontended.
//
// The deadline matters for liveness: without one, a hung or half-open peer
// socket blocks a frame read (or a write into a full kernel buffer)
// forever — on the coordinator that stalls the migration barrier for the
// whole fleet. timeout <= 0 disables deadlines (tests, trusted local
// fleets); when set, it must exceed the longest interval a peer can
// legitimately go silent, i.e. the slowest worker's MigrateEvery-round
// step.
type wire struct {
	c       net.Conn
	r       *bufio.Reader
	wmu     sync.Mutex
	timeout time.Duration
}

func newWire(c net.Conn, timeout time.Duration) *wire {
	return &wire{c: c, r: bufio.NewReaderSize(c, 1<<16), timeout: timeout}
}

// wrapTimeout makes deadline expiry actionable: the raw error is a bare
// "i/o timeout" with no hint of which side gave up or after how long. The
// caller (the coordinator's per-worker fan-out, the worker's session log)
// prefixes the peer address.
func (w *wire) wrapTimeout(op string, err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("dist: frame %s timed out after %v (hung or half-open peer): %w", op, w.timeout, err)
	}
	return err
}

func (w *wire) writeFrame(t MsgType, payload []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	if w.timeout > 0 {
		_ = w.c.SetWriteDeadline(time.Now().Add(w.timeout))
	}
	return w.wrapTimeout("write", WriteFrame(w.c, t, payload))
}

func (w *wire) read() (MsgType, []byte, error) {
	if w.timeout > 0 {
		_ = w.c.SetReadDeadline(time.Now().Add(w.timeout))
	}
	t, payload, err := ReadFrame(w.r)
	return t, payload, w.wrapTimeout("read", err)
}

// readMsg reads one frame, surfaces MsgError bodies as Go errors, enforces
// the expected type, and unmarshals into reply (which may be nil for
// bodyless acks).
func (w *wire) readMsg(want MsgType, reply any) error {
	t, payload, err := w.read()
	if err != nil {
		return err
	}
	if t == MsgError {
		var e errorMsg
		if json.Unmarshal(payload, &e) == nil && e.Err != "" {
			return fmt.Errorf("dist: peer error: %s", e.Err)
		}
		return fmt.Errorf("dist: peer error")
	}
	if t != want {
		return fmt.Errorf("dist: got message type %d, want %d", t, want)
	}
	if reply == nil {
		return nil
	}
	if err := json.Unmarshal(payload, reply); err != nil {
		return fmt.Errorf("dist: decode message %d: %w", t, err)
	}
	return nil
}

// request sends one message and reads its typed reply.
func (w *wire) request(t MsgType, body any, wantReply MsgType, reply any) error {
	if err := writeMsg(w, t, body); err != nil {
		return err
	}
	return w.readMsg(wantReply, reply)
}
