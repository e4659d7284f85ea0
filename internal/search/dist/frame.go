// Package dist runs the island-model search across processes: a fleet of
// worker processes each hosts a contiguous slice of the migration ring
// (search.RingHost), and a coordinator connects to them over
// length-prefixed binary frames on localhost TCP.
//
// Determinism contract. The coordinator is a search.Ring: the barrier
// schedule it runs under is search's own loop, the one in-process searches
// run. Its Migrate collects EVERY worker's emigrant payloads before
// committing any of them and delivers each payload to the ring successor —
// the same select-all-then-commit-all barrier as the in-process ring.
// Because emigrant selection and commit are both island-local (each island
// draws only from its own StreamMigration RNG), the barrier ordering is the
// only cross-process invariant needed, and Run with any worker partitioning
// is bit-identical to search.Run with the same Options: same best genome,
// same Stats, byte-identical checkpoints.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
)

// Frame layout, all integers little-endian, mirroring the serialize cost-
// cache codec conventions (magic, version, trailing FNV-1a checksum):
//
//	magic   [8]byte  "COCCDIST"
//	version uint32   protocol version
//	type    uint32   message type
//	length  uint32   payload byte count
//	payload [length]byte (JSON message body)
//	sum     uint64   FNV-1a over everything before it
const (
	// ProtocolVersion gates the wire format and the message semantics.
	// Coordinator and worker refuse to talk across versions. Version 2's
	// assign frame carries search.Options whole.
	ProtocolVersion = 2

	frameMagic  = "COCCDIST"
	headerSize  = len(frameMagic) + 4 + 4 + 4
	trailerSize = 8

	// MaxPayload bounds a single frame. Island snapshots of the largest zoo
	// models are single-digit MiB of JSON; 256 MiB rejects nonsense lengths
	// from corrupt or adversarial streams without constraining real use.
	MaxPayload = 256 << 20
)

// MsgType identifies a frame's message body.
type MsgType uint32

const (
	// MsgError carries errorMsg in either direction; the session is dead
	// after it.
	MsgError MsgType = iota + 1
	// MsgHello (coordinator→worker) opens a session with helloMsg;
	// MsgHelloAck answers with the worker's own helloMsg.
	MsgHello
	MsgHelloAck
	// MsgAssign hands the worker its ring slice, options, and optional
	// resume snapshots; MsgAssignAck confirms the RingHost is built.
	MsgAssign
	MsgAssignAck
	// MsgStep advances every hosted island one round; MsgStepped reports
	// per-island progress and exhaustion.
	MsgStep
	MsgStepped
	// MsgEmigrantsReq asks for the round's emigrant selection (only sent on
	// rounds that migrate, so migration-RNG draws match the single-process
	// schedule); MsgEmigrants answers with per-island payloads.
	MsgEmigrantsReq
	MsgEmigrants
	// MsgCommit delivers immigrants to hosted islands. One-way: TCP ordering
	// plus the worker's sequential frame loop guarantee commits land before
	// any later step or snapshot request on the same connection.
	MsgCommit
	// MsgSnapshotReq/MsgSnapshot fetch barrier-quiescent island snapshots
	// for the coordinator's aggregated checkpoint.
	MsgSnapshotReq
	MsgSnapshot
	// MsgResultReq/MsgResult fetch final per-island stats and best genomes.
	MsgResultReq
	MsgResult

	msgTypeMax = MsgResult
)

// Distinct decode errors, ordered by how early the frame breaks.
var (
	ErrBadMagic    = errors.New("dist: bad frame magic")
	ErrVersion     = errors.New("dist: unsupported protocol version")
	ErrBadType     = errors.New("dist: unknown message type")
	ErrFrameTooBig = errors.New("dist: frame payload exceeds limit")
	ErrTruncated   = errors.New("dist: truncated frame")
	ErrBadChecksum = errors.New("dist: frame checksum mismatch")
)

// EncodeFrame serializes one frame.
func EncodeFrame(t MsgType, payload []byte) []byte {
	buf := make([]byte, 0, headerSize+len(payload)+trailerSize)
	buf = append(buf, frameMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, ProtocolVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	h := fnv.New64a()
	h.Write(buf)
	return binary.LittleEndian.AppendUint64(buf, h.Sum64())
}

// parseHeader validates a frame header and returns (type, payload length).
func parseHeader(hdr []byte) (MsgType, int, error) {
	if string(hdr[:len(frameMagic)]) != frameMagic {
		return 0, 0, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[len(frameMagic):]); v != ProtocolVersion {
		return 0, 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, ProtocolVersion)
	}
	t := MsgType(binary.LittleEndian.Uint32(hdr[len(frameMagic)+4:]))
	if t == 0 || t > msgTypeMax {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadType, uint32(t))
	}
	n := binary.LittleEndian.Uint32(hdr[len(frameMagic)+8:])
	if n > MaxPayload {
		return 0, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	return t, int(n), nil
}

// checkSum verifies the trailing checksum of a complete frame buffer
// (header+payload followed by the 8-byte sum).
func checkSum(frame []byte) error {
	body, tail := frame[:len(frame)-trailerSize], frame[len(frame)-trailerSize:]
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != binary.LittleEndian.Uint64(tail) {
		return ErrBadChecksum
	}
	return nil
}

// DecodeFrame parses one frame from the front of data, returning the message
// type, its payload (aliasing data), and the total bytes consumed. This is
// the pure-slice form the fuzz target drives; ReadFrame is the stream form.
func DecodeFrame(data []byte) (MsgType, []byte, int, error) {
	if len(data) < headerSize {
		return 0, nil, 0, ErrTruncated
	}
	t, n, err := parseHeader(data[:headerSize])
	if err != nil {
		return 0, nil, 0, err
	}
	total := headerSize + n + trailerSize
	if len(data) < total {
		return 0, nil, 0, ErrTruncated
	}
	if err := checkSum(data[:total]); err != nil {
		return 0, nil, 0, err
	}
	return t, data[headerSize : headerSize+n], total, nil
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	_, err := w.Write(EncodeFrame(t, payload))
	return err
}

// ReadFrame reads one frame from r. A clean EOF before the first header byte
// is returned as io.EOF (session over); anything shorter than a full frame
// is an error.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		// %w-chain the transport error so callers can still detect net.Error
		// timeouts (the dist wire's I/O deadlines) through the wrapper.
		return 0, nil, fmt.Errorf("%w: %w", ErrTruncated, err)
	}
	t, n, err := parseHeader(hdr)
	if err != nil {
		return 0, nil, err
	}
	frame := make([]byte, headerSize+n+trailerSize)
	copy(frame, hdr)
	if _, err := io.ReadFull(r, frame[headerSize:]); err != nil {
		return 0, nil, fmt.Errorf("%w: %w", ErrTruncated, err)
	}
	if err := checkSum(frame); err != nil {
		return 0, nil, err
	}
	return t, frame[headerSize : headerSize+n], nil
}
