package serialize

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/tiling"
)

// snapshotFixture builds a real populated cache snapshot: a small model
// evaluated over a handful of subgraphs.
func snapshotFixture(t testing.TB) *eval.CacheSnapshot {
	t.Helper()
	g := models.MustBuild("vgg16")
	ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	for _, sub := range [][]int{{1}, {2}, {1, 2}, {2, 3, 4}, {5, 6, 7, 8}} {
		ev.Subgraph(sub)
	}
	snap, err := ev.ExportCache()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) == 0 {
		t.Fatal("fixture snapshot is empty")
	}
	return snap
}

func TestCostCacheCodecRoundTrip(t *testing.T) {
	snap := snapshotFixture(t)
	data, err := EncodeCostCache(snap)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCostCache(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint != snap.Fingerprint {
		t.Errorf("fingerprint %q != %q", back.Fingerprint, snap.Fingerprint)
	}
	if len(back.Entries) != len(snap.Entries) || string(back.Arena) != string(snap.Arena) {
		t.Fatalf("structure changed: %d/%d entries, %d/%d arena bytes",
			len(back.Entries), len(snap.Entries), len(back.Arena), len(snap.Arena))
	}
	for i := range snap.Entries {
		if back.Entries[i] != snap.Entries[i] {
			t.Errorf("entry %d: %+v != %+v", i, back.Entries[i], snap.Entries[i])
		}
	}
}

// TestCostCacheFrameIndependentOfOrder: a snapshot's bytes depend only on
// the set of cached subgraphs. Two fresh evaluators that cost the same
// subgraphs in opposite orders, and so insert them in opposite orders,
// encode byte-identical frames.
func TestCostCacheFrameIndependentOfOrder(t *testing.T) {
	g := models.MustBuild("vgg16")
	ids := g.ComputeIDs()
	var subs [][]int
	for i := range ids {
		subs = append(subs, ids[i:i+1])
		if i+1 < len(ids) {
			subs = append(subs, ids[i:i+2])
		}
	}
	frame := func(reverse bool) []byte {
		ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
		for i := range subs {
			if reverse {
				i = len(subs) - 1 - i
			}
			ev.Subgraph(subs[i])
		}
		snap, err := ev.ExportCache()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Entries) != len(subs) {
			t.Fatalf("snapshot holds %d records, want %d", len(snap.Entries), len(subs))
		}
		data, err := EncodeCostCache(snap)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if forward, backward := frame(false), frame(true); string(forward) != string(backward) {
		t.Error("costing the same subgraphs in opposite orders exported different frames")
	}
}

// rechecksum recomputes the trailing FNV-1a so a test can patch bytes and
// still present a frame whose corruption is the patch, not the checksum.
func rechecksum(data []byte) []byte {
	binary.LittleEndian.PutUint64(data[len(data)-8:], fnv1a(data[:len(data)-8]))
	return data
}

// TestCostCacheDecodeRejects is the damage table: every class of bad input
// must come back as a distinct error — and never a panic.
func TestCostCacheDecodeRejects(t *testing.T) {
	valid, err := EncodeCostCache(snapshotFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	fpLen := int(binary.LittleEndian.Uint32(valid[12:]))
	recordsOff := 16 + fpLen + 16

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr string
	}{
		{"empty file", func(d []byte) []byte { return nil }, "bad magic"},
		{"tiny file", func(d []byte) []byte { return d[:6] }, "bad magic"},
		{"foreign magic", func(d []byte) []byte {
			copy(d, "NOTCACHE")
			return d
		}, "bad magic"},
		{"version too new", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], CostCacheVersion+1)
			return rechecksum(d)
		}, "format version 3, want 2"},
		{"version too old", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:], CostCacheVersion-1)
			return rechecksum(d)
		}, "format version 1, want 2"},
		{"truncated mid-records", func(d []byte) []byte { return d[:recordsOff+13] }, "truncated"},
		{"truncated checksum", func(d []byte) []byte { return d[:len(d)-3] }, "truncated"},
		{"trailing garbage", func(d []byte) []byte { return append(d, 0xEE) }, "trailing"},
		{"flipped arena byte", func(d []byte) []byte {
			d[len(d)-9] ^= 0x40
			return d
		}, "checksum"},
		{"flipped record byte", func(d []byte) []byte {
			d[recordsOff+20] ^= 0x01
			return d
		}, "checksum"},
		{"record window past arena", func(d []byte) []byte {
			// First record's off: point it past the arena end.
			binary.LittleEndian.PutUint32(d[recordsOff:], 1<<30)
			return rechecksum(d)
		}, "arena"},
		{"record key unaligned", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[recordsOff+4:], 3)
			return rechecksum(d)
		}, "arena"},
		{"implausible count", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[16+fpLen:], 1<<60)
			return rechecksum(d)
		}, "implausible"},
	}
	for _, tc := range cases {
		data := tc.mutate(append([]byte(nil), valid...))
		snap, err := DecodeCostCache(data)
		if err == nil {
			t.Errorf("%s: decode accepted damaged input (%d entries)", tc.name, len(snap.Entries))
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestLoadCostCacheFileRule pins the one rule every snapshot loader
// shares: a missing file wraps os.ErrNotExist (a cold start); a file that
// exists but does not load is an error naming it and saying to delete it,
// and loads nothing.
func TestLoadCostCacheFileRule(t *testing.T) {
	snap := snapshotFixture(t)
	valid, err := EncodeCostCache(snap)
	if err != nil {
		t.Fatal(err)
	}
	reencode := func(mut func(*eval.CacheSnapshot)) []byte {
		s, err := DecodeCostCache(valid)
		if err != nil {
			t.Fatal(err)
		}
		mut(s)
		data, err := EncodeCostCache(s)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-9] ^= 0x40
	oldVersion := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(oldVersion[8:], CostCacheVersion-1)

	dir := t.TempDir()
	newEv := func() *eval.Evaluator {
		return eval.MustNew(models.MustBuild("vgg16"), hw.DefaultPlatform(), tiling.DefaultConfig())
	}
	missing := filepath.Join(dir, "missing.cache")
	if n, err := LoadCostCacheFile(newEv(), missing); !errors.Is(err, os.ErrNotExist) || n != 0 {
		t.Errorf("missing file: added %d, err %v; want os.ErrNotExist", n, err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"corrupt frame", corrupt, "checksum mismatch"},
		{"previous version", oldVersion, "format version 1, want 2"},
		{"foreign fingerprint", reencode(func(s *eval.CacheSnapshot) { s.Fingerprint += " core=other" }), "fingerprint mismatch"},
		// Record 0 is always in the re-derived sample.
		{"changed record 0", reencode(func(s *eval.CacheSnapshot) { s.Entries[0].GLBAccessBytes-- }), "entry 0: stored cost"},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".cache")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		ev := newEv()
		n, err := LoadCostCacheFile(ev, path)
		for _, want := range []string{"serialize: cost cache " + path + ": ", tc.want, "(delete the file to start cold)"} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: got %v, want an error containing %q", tc.name, err, want)
			}
		}
		if n != 0 || ev.CacheEntries() != 0 || errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: added %d (%d cached), err %v; want nothing loaded and no cold start", tc.name, n, ev.CacheEntries(), err)
		}
	}
	path := filepath.Join(dir, "valid.cache")
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := LoadCostCacheFile(newEv(), path); err != nil || n != len(snap.Entries) {
		t.Errorf("valid file: added %d, err %v; want all %d entries", n, err, len(snap.Entries))
	}
}

// TestEncodeCostCacheRefusesCorrupt: the encoder must not produce a frame
// that would decode into out-of-bounds key windows.
func TestEncodeCostCacheRefusesCorrupt(t *testing.T) {
	bad := []*eval.CacheSnapshot{
		{Fingerprint: "f", Arena: make([]byte, 8), Entries: []eval.CacheRecord{{Off: 8, KeyLen: 4}}},
		{Fingerprint: "f", Arena: make([]byte, 8), Entries: []eval.CacheRecord{{Off: 0, KeyLen: 0}}},
		{Fingerprint: "f", Arena: make([]byte, 8), Entries: []eval.CacheRecord{{Off: 0, KeyLen: 6}}},
	}
	for i, snap := range bad {
		if _, err := EncodeCostCache(snap); err == nil {
			t.Errorf("case %d: encoder wrote a snapshot that cannot decode cleanly", i)
		}
	}
}

// TestEncodersSideEffectFree is the regression for the encoder-mutation
// bug: stamping the wire version must not write through to the caller's
// struct (callers reuse outcome/checkpoint structs across encodes and
// compare them against decoded files).
func TestEncodersSideEffectFree(t *testing.T) {
	o := &SweepOutcomeJSON{ConfigID: "cfg", Graph: "g", Samples: 3}
	data, err := EncodeSweepOutcome(o)
	if err != nil {
		t.Fatal(err)
	}
	if o.Version != 0 {
		t.Errorf("EncodeSweepOutcome stamped the caller's struct (Version=%d)", o.Version)
	}
	back, err := DecodeSweepOutcome(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != SweepOutcomeVersion {
		t.Errorf("wire version %d, want %d", back.Version, SweepOutcomeVersion)
	}

	c := &CheckpointJSON{Graph: "g", Config: "cfg"}
	cdata, err := EncodeCheckpoint(c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version != 0 {
		t.Errorf("EncodeCheckpoint stamped the caller's struct (Version=%d)", c.Version)
	}
	cback, err := DecodeCheckpoint(cdata)
	if err != nil {
		t.Fatal(err)
	}
	if cback.Version != CheckpointVersion {
		t.Errorf("wire version %d, want %d", cback.Version, CheckpointVersion)
	}
}

// FuzzCostCacheDecode: arbitrary bytes must never panic the decoder, and
// anything it accepts must re-encode AND survive the load path — including
// the fingerprint rejection in eval.LoadCache, which fuzzed frames hit
// almost always (a fuzzer-mutated fingerprint can't match the evaluator's),
// and the member-key validation behind it when the fingerprint does match.
func FuzzCostCacheDecode(f *testing.F) {
	valid, err := EncodeCostCache(snapshotFixture(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("COCCACHE"))
	f.Add([]byte{})
	// An old-version frame: seeds the version branch.
	oldFrame := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(oldFrame[8:], CostCacheVersion-1)
	f.Add(rechecksum(oldFrame))
	g := models.MustBuild("vgg16")
	ev := eval.MustNew(g, hw.DefaultPlatform(), tiling.DefaultConfig())
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeCostCache(data)
		if err != nil {
			return
		}
		if _, err := EncodeCostCache(snap); err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		// Loading a decoded frame must never panic: either the fingerprint
		// is foreign (the common fuzz case) or the records pass the same
		// validation a legitimate load applies.
		_, _ = ev.LoadCache(snap)
	})
}
