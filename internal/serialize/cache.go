package serialize

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"cocco/internal/eval"
)

// Cost-cache snapshot wire format: the persistent, shareable half of the
// evaluator's subgraph-cost cache (eval.CacheSnapshot). The layout is the
// cache's own flat layout — fixed-size records over one key arena — framed
// with a magic string, a format version, the validity fingerprint, and a
// trailing FNV-1a checksum, so a load can distinguish "not a cache file",
// "wrong format version", "truncated", and "corrupted" with distinct
// errors and never decodes garbage into costs. Everything is little-endian.
//
//	magic    [8]byte "COCCACHE"
//	version  uint32
//	fpLen    uint32, fingerprint bytes
//	count    uint64 (records)
//	arenaLen uint64 (key-arena bytes)
//	records  count × 64 bytes: off u32, klen u32, then int64
//	         {weight, in, out, actFootprint, MACs, computeCycles, glbAccess}
//	arena    arenaLen bytes
//	checksum uint64 FNV-1a over every preceding byte
//
// Wrong-model/-config loads are rejected one layer up: the fingerprint is
// carried verbatim and eval.LoadCache compares it against the target
// evaluator's own CacheFingerprint.

// CostCacheVersion is the current snapshot format version; decode rejects
// any other value. Version 2 relaxed the fingerprint from the full platform
// to the core geometry (graph + tiling + hw.Core) when the cost cache moved
// onto the shared GraphContext: version-1 snapshots are valid only for the
// exact platform that wrote them, which the geometry fingerprint can no
// longer express, so they are rejected rather than reinterpreted.
const CostCacheVersion = 2

var costCacheMagic = [8]byte{'C', 'O', 'C', 'C', 'A', 'C', 'H', 'E'}

const cacheRecordSize = 64

// fnv1a is the checksum over the snapshot frame (same function as the
// cache's key hash, on different data).
func fnv1a(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// EncodeCostCache serializes a snapshot. It refuses to write anything that
// would not decode back cleanly — an oversized arena or a record whose key
// window falls outside it — so a snapshot file on disk is either loadable
// or detectably damaged, never silently wrong.
func EncodeCostCache(snap *eval.CacheSnapshot) ([]byte, error) {
	if int64(len(snap.Arena)) > math.MaxUint32 {
		return nil, fmt.Errorf("serialize: cost cache: arena %d bytes exceeds the uint32 offset range", len(snap.Arena))
	}
	for i := range snap.Entries {
		r := &snap.Entries[i]
		if r.KeyLen == 0 || r.KeyLen%4 != 0 || int64(r.Off)+int64(r.KeyLen) > int64(len(snap.Arena)) {
			return nil, fmt.Errorf("serialize: cost cache: entry %d key window [%d:%d) invalid for %d-byte arena",
				i, r.Off, int64(r.Off)+int64(r.KeyLen), len(snap.Arena))
		}
	}
	size := 8 + 4 + 4 + len(snap.Fingerprint) + 8 + 8 + len(snap.Entries)*cacheRecordSize + len(snap.Arena) + 8
	buf := make([]byte, 0, size)
	buf = append(buf, costCacheMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, CostCacheVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(snap.Fingerprint)))
	buf = append(buf, snap.Fingerprint...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(snap.Entries)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(snap.Arena)))
	for i := range snap.Entries {
		r := &snap.Entries[i]
		buf = binary.LittleEndian.AppendUint32(buf, r.Off)
		buf = binary.LittleEndian.AppendUint32(buf, r.KeyLen)
		for _, v := range [...]int64{r.WeightBytes, r.InBytes, r.OutBytes, r.ActFootprint, r.MACs, r.ComputeCycles, r.GLBAccessBytes} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	buf = append(buf, snap.Arena...)
	buf = binary.LittleEndian.AppendUint64(buf, fnv1a(buf))
	return buf, nil
}

// DecodeCostCache deserializes a snapshot, rejecting non-cache data, other
// format versions, truncated or oversized frames, checksum failures, and
// out-of-bounds records — each with a distinct error, none with a panic.
// The fingerprint is NOT validated here (the codec has no evaluator to ask);
// eval.LoadCache performs that check.
func DecodeCostCache(data []byte) (*eval.CacheSnapshot, error) {
	if len(data) < 8+4 || [8]byte(data[:8]) != costCacheMagic {
		return nil, fmt.Errorf("serialize: cost cache: not a cache snapshot (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != CostCacheVersion {
		return nil, fmt.Errorf("serialize: cost cache: format version %d, want %d", v, CostCacheVersion)
	}
	if len(data) < 16 {
		return nil, fmt.Errorf("serialize: cost cache: truncated header")
	}
	fpLen := int64(binary.LittleEndian.Uint32(data[12:]))
	if int64(len(data)) < 16+fpLen+16 {
		return nil, fmt.Errorf("serialize: cost cache: truncated header")
	}
	fp := string(data[16 : 16+fpLen])
	count := binary.LittleEndian.Uint64(data[16+fpLen:])
	arenaLen := binary.LittleEndian.Uint64(data[16+fpLen+8:])
	bodyOff := 16 + fpLen + 16
	if count > uint64(math.MaxInt64/cacheRecordSize) || arenaLen > math.MaxUint32 {
		return nil, fmt.Errorf("serialize: cost cache: implausible entry count %d / arena %d", count, arenaLen)
	}
	want := bodyOff + int64(count)*cacheRecordSize + int64(arenaLen) + 8
	if int64(len(data)) < want {
		return nil, fmt.Errorf("serialize: cost cache: truncated (%d bytes, want %d)", len(data), want)
	}
	if int64(len(data)) > want {
		return nil, fmt.Errorf("serialize: cost cache: %d trailing bytes after the frame", int64(len(data))-want)
	}
	sumOff := want - 8
	if got, stored := fnv1a(data[:sumOff]), binary.LittleEndian.Uint64(data[sumOff:]); got != stored {
		return nil, fmt.Errorf("serialize: cost cache: checksum mismatch (stored %x, computed %x) — file corrupted", stored, got)
	}
	snap := &eval.CacheSnapshot{
		Fingerprint: fp,
		Entries:     make([]eval.CacheRecord, count),
		Arena:       append([]byte(nil), data[bodyOff+int64(count)*cacheRecordSize:sumOff]...),
	}
	for i := range snap.Entries {
		rec := data[bodyOff+int64(i)*cacheRecordSize:]
		r := &snap.Entries[i]
		r.Off = binary.LittleEndian.Uint32(rec)
		r.KeyLen = binary.LittleEndian.Uint32(rec[4:])
		if r.KeyLen == 0 || r.KeyLen%4 != 0 || int64(r.Off)+int64(r.KeyLen) > int64(arenaLen) {
			return nil, fmt.Errorf("serialize: cost cache: entry %d key window [%d:%d) outside the %d-byte arena",
				i, r.Off, int64(r.Off)+int64(r.KeyLen), arenaLen)
		}
		r.WeightBytes = int64(binary.LittleEndian.Uint64(rec[8:]))
		r.InBytes = int64(binary.LittleEndian.Uint64(rec[16:]))
		r.OutBytes = int64(binary.LittleEndian.Uint64(rec[24:]))
		r.ActFootprint = int64(binary.LittleEndian.Uint64(rec[32:]))
		r.MACs = int64(binary.LittleEndian.Uint64(rec[40:]))
		r.ComputeCycles = int64(binary.LittleEndian.Uint64(rec[48:]))
		r.GLBAccessBytes = int64(binary.LittleEndian.Uint64(rec[56:]))
	}
	return snap, nil
}

// WriteCostCacheFile encodes and atomically writes a snapshot.
func WriteCostCacheFile(path string, snap *eval.CacheSnapshot) error {
	data, err := EncodeCostCache(snap)
	if err != nil {
		return err
	}
	return AtomicWriteFile(path, data, 0o644)
}

// LoadCostCacheFile warm-starts ev from a snapshot file, returning the
// number of entries added. It is the one rule for every snapshot loader
// (cocco and coccow -cache-load, dse's geometry-group files): a missing file
// is an error wrapping os.ErrNotExist, which callers treat as a cold start;
// any other file that does not load — a damaged frame, another format
// version, a foreign fingerprint, a re-derived record that differs — is an
// error naming the file and saying to delete it, and adds nothing.
func LoadCostCacheFile(ev *eval.Evaluator, path string) (added int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("serialize: cost cache: %w", err)
	}
	snap, err := DecodeCostCache(data)
	if err == nil {
		added, err = ev.LoadCache(snap)
	}
	if err != nil {
		return 0, fmt.Errorf("serialize: cost cache %s: %w (delete the file to start cold)", path, err)
	}
	return added, nil
}
