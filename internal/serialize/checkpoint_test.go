package serialize

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"cocco/internal/eval"
	"cocco/internal/hw"
)

// TestCheckpointRoundTrip pins the bit-exactness the resume-determinism
// contract needs: float64 fields (costs, energies, temperatures) survive an
// encode/decode cycle with their exact bit patterns, and every other field
// deep-equals.
func TestCheckpointRoundTrip(t *testing.T) {
	awkward := []float64{
		0.1 + 0.2,               // classic non-representable sum
		math.Pi * 1e12,          // large magnitude
		math.Nextafter(1, 2),    // smallest increment above 1
		1e30 + 3,                // the infeasible-cost sentinel family
		4.9406564584124654e-324, // smallest subnormal
	}
	cp := &CheckpointJSON{
		Graph:      "resnet50",
		Config:     "v1 seed=42 …",
		Round:      7,
		Migrations: 3,
	}
	for i, f := range awkward {
		cp.Islands = append(cp.Islands, IslandJSON{
			Kind:        "ga",
			RNG:         RNGStateJSON{Seed: int64(i), State: uint64(i) * 1234567},
			Migration:   RNGStateJSON{Seed: -int64(i), State: 42},
			Started:     true,
			Samples:     100 * i,
			Generations: i,
			BestHistory: []float64{f, f / 3},
			Temp:        f,
			Best: &GenomeJSON{
				Assign: []int{-1, 0, 0, 1},
				Mem:    MemConfigJSON{Kind: "separate", GlobalBytes: 1 << 20, WeightBytes: 1 << 21},
				Cost:   f,
				Res: &ResultJSON{
					EMABytes: 123, EnergyPJ: f, LatencyCycles: 456,
					AvgBWBytesPerSec: f * 7, NumSubgraphs: 2,
				},
			},
		})
	}
	data, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	// The encoder stamps the current version on the wire form only; the
	// caller's struct keeps its zero Version.
	if cp.Version != 0 {
		t.Fatalf("encode mutated the input (Version=%d)", cp.Version)
	}
	want := *cp
	want.Version = CheckpointVersion
	if !reflect.DeepEqual(&want, back) {
		t.Fatalf("round trip changed the checkpoint:\nin:  %+v\nout: %+v", &want, back)
	}
	for i, f := range awkward {
		if got := back.Islands[i].Best.Cost; math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("island %d: cost bits changed: %x -> %x", i, math.Float64bits(f), math.Float64bits(got))
		}
	}
}

// TestCheckpointVersionGate pins that unknown versions are rejected.
func TestCheckpointVersionGate(t *testing.T) {
	data, err := EncodeCheckpoint(&CheckpointJSON{Graph: "g"})
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the version through a generic decode, so the input does not
	// depend on how the encoder lays out whitespace.
	var fields map[string]any
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	if fields["version"] != float64(CheckpointVersion) {
		t.Fatalf("encoded version = %v, want %d", fields["version"], CheckpointVersion)
	}
	fields["version"] = 99
	bad, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Error("decoded a version-99 checkpoint")
	}
}

// TestMemConfigRoundTrip covers both buffer kinds and the unknown-kind
// error path.
func TestMemConfigRoundTrip(t *testing.T) {
	for _, m := range []hw.MemConfig{
		{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB},
		{Kind: hw.SharedBuffer, GlobalBytes: 2048 * hw.KiB},
	} {
		back, err := DecodeMemConfig(EncodeMemConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		if back != m {
			t.Errorf("round trip changed %+v to %+v", m, back)
		}
	}
	if _, err := DecodeMemConfig(MemConfigJSON{Kind: "quantum"}); err == nil {
		t.Error("decoded an unknown buffer kind")
	}
}

// TestResultRoundTrip pins result field fidelity including the infeasible
// list.
func TestResultRoundTrip(t *testing.T) {
	r := &eval.Result{
		EMABytes: 1 << 40, EnergyPJ: 0.1 + 0.2, LatencyCycles: 99,
		AvgBWBytesPerSec: math.Pi, MaxActFootprint: 7, MaxWgtFootprint: 8,
		Infeasible: []int{3, 5}, NumSubgraphs: 11,
	}
	back := DecodeResult(EncodeResult(r))
	if !reflect.DeepEqual(r, back) {
		t.Errorf("round trip changed %+v to %+v", r, back)
	}
	if DecodeResult(nil) != nil || EncodeResult(nil) != nil {
		t.Error("nil results should stay nil")
	}
}
