package hw

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMemRangeCandidates(t *testing.T) {
	r := MemRange{Min: 128 * KiB, Max: 512 * KiB, Step: 128 * KiB}
	c := r.Candidates()
	if len(c) != 4 || c[0] != 128*KiB || c[3] != 512*KiB {
		t.Errorf("candidates = %v", c)
	}
	if r.Count() != 4 {
		t.Errorf("count = %d", r.Count())
	}
	if (MemRange{Min: 10, Max: 5, Step: 1}).Candidates() != nil {
		t.Error("inverted range should be empty")
	}
	if (MemRange{Min: 1, Max: 5, Step: 0}).Count() != 0 {
		t.Error("zero step should be empty")
	}
}

func TestMemRangeClamp(t *testing.T) {
	r := PaperGlobalRange()
	cases := []struct{ in, want int64 }{
		{0, 128 * KiB},
		{128 * KiB, 128 * KiB},
		{129 * KiB, 128 * KiB},
		{190 * KiB, 192 * KiB},
		{5 * MiB, 2048 * KiB},
	}
	for _, c := range cases {
		if got := r.Clamp(c.in); got != c.want {
			t.Errorf("Clamp(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestMemRangeClampOffGrid: when Max is off the grid, Clamp stays on it:
// above the last candidate it returns that candidate, not Max, and no
// rounding goes past it.
func TestMemRangeClampOffGrid(t *testing.T) {
	r := MemRange{Min: 128 * KiB, Max: 250 * KiB, Step: 64 * KiB} // 128, 192
	for _, c := range []struct{ in, want int64 }{
		{160 * KiB, 192 * KiB}, {191 * KiB, 192 * KiB}, {230 * KiB, 192 * KiB}, {400 * KiB, 192 * KiB},
	} {
		if got := r.Clamp(c.in); got != c.want || !r.Contains(got) {
			t.Errorf("Clamp(%d KiB) = %d KiB, want %d KiB", c.in/KiB, got/KiB, c.want/KiB)
		}
	}
}

func TestMemRangeValidate(t *testing.T) {
	for _, r := range []MemRange{PaperGlobalRange(), PaperWeightRange(), PaperSharedRange(),
		{Min: 1, Max: MaxRangeCandidates, Step: 1}} {
		if err := r.Validate(); err != nil {
			t.Errorf("%+v refused: %v", r, err)
		}
	}
	for _, c := range []struct {
		r    MemRange
		want string
	}{
		{MemRange{Min: 0, Max: MiB, Step: KiB}, "minimum must be >= 1"},
		{MemRange{Min: -KiB, Max: KiB, Step: KiB}, "minimum must be >= 1"},
		{MemRange{Min: KiB, Max: MiB, Step: 0}, "step must be >= 1"},
		{MemRange{Min: MiB, Max: KiB, Step: KiB}, "empty range"},
		{MemRange{Min: 1, Max: MaxRangeCandidates + 1, Step: 1}, "at most 4096 candidates, got 4097"},
		{MemRange{Min: 1, Max: math.MaxInt64, Step: 1}, "at most 4096 candidates, got 9223372036854775807"},
	} {
		if err := c.r.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got %v, want an error containing %q", c.r, err, c.want)
		}
	}
}

// TestClampAlwaysContained: Clamp lands on a valid candidate for any input.
func TestClampAlwaysContained(t *testing.T) {
	ranges := []MemRange{PaperGlobalRange(), PaperWeightRange(), PaperSharedRange()}
	f := func(v int64) bool {
		for _, r := range ranges {
			if !r.Contains(r.Clamp(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPaperRanges(t *testing.T) {
	if g := PaperGlobalRange(); g.Count() != 31 {
		t.Errorf("global candidates = %d, want 31", g.Count())
	}
	if w := PaperWeightRange(); w.Count() != 31 {
		t.Errorf("weight candidates = %d, want 31", w.Count())
	}
	if s := PaperSharedRange(); s.Count() != 47 {
		t.Errorf("shared candidates = %d, want 47", s.Count())
	}
}

func TestMemConfigValidate(t *testing.T) {
	ok := MemConfig{Kind: SeparateBuffer, GlobalBytes: MiB, WeightBytes: MiB}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []MemConfig{
		{Kind: SeparateBuffer, GlobalBytes: 0, WeightBytes: MiB},
		{Kind: SeparateBuffer, GlobalBytes: MiB, WeightBytes: 0},
		{Kind: SharedBuffer, GlobalBytes: MiB, WeightBytes: MiB},
		{Kind: BufferKind(7), GlobalBytes: MiB, WeightBytes: MiB},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %v", i, m)
		}
	}
	if (MemConfig{Kind: SharedBuffer, GlobalBytes: MiB}).Validate() != nil {
		t.Error("valid shared config rejected")
	}
}

func TestCoreThroughput(t *testing.T) {
	c := DefaultCore()
	if got := c.MACsPerCycle(); got != 1024 {
		t.Errorf("MACsPerCycle = %d", got)
	}
	// 2 TOPS check: 1024 MACs × 2 ops × 1 GHz.
	tops := float64(c.MACsPerCycle()) * 2 * float64(c.FreqHz) / 1e12
	if tops != 2.048 {
		t.Errorf("peak = %.3f TOPS", tops)
	}
	if got := c.ComputeCycles(0); got != 0 {
		t.Errorf("ComputeCycles(0) = %d", got)
	}
	if got := c.ComputeCycles(1024); got < 1 {
		t.Errorf("ComputeCycles(1024) = %d", got)
	}
	// 16 bytes/cycle at 16 GB/s and 1 GHz.
	if got := c.DRAMCycles(160); got != 10 {
		t.Errorf("DRAMCycles(160) = %d", got)
	}
}

func TestEnergyModel(t *testing.T) {
	e := DefaultEnergy()
	// Paper constant: 12.5 pJ/bit → 100 pJ/byte.
	if got := e.DRAMBytes(1); got != 100 {
		t.Errorf("DRAM pJ/byte = %g", got)
	}
	// SRAM energy per byte must grow monotonically with capacity.
	prev := 0.0
	for _, kb := range []int64{64, 128, 512, 1024, 2048} {
		cur := e.SRAMPerByte(kb * KiB)
		if cur <= prev {
			t.Errorf("SRAMPerByte not increasing at %dKB: %g <= %g", kb, cur, prev)
		}
		prev = cur
	}
	// On-chip access must be far cheaper than DRAM at any studied size.
	if e.SRAMPerByte(3072*KiB) >= e.DRAMBytes(1) {
		t.Error("SRAM pricier than DRAM")
	}
	if e.MACs(100) != 100*e.MACPerOp {
		t.Error("MAC energy")
	}
	if e.Crossbar(10) != 10*e.CrossbarPerByte {
		t.Error("crossbar energy")
	}
}

func TestAreaModel(t *testing.T) {
	a := DefaultArea()
	got := a.BufferMM2(2 * MiB)
	if math.Abs(got-3.0) > 1e-9 {
		t.Errorf("2MB area = %g mm², want 3", got)
	}
}

func TestPlatformValidate(t *testing.T) {
	p := DefaultPlatform()
	if err := p.Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
	bad := p
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Error("zero cores accepted")
	}
	bad = p
	bad.Batch = 0
	if bad.Validate() == nil {
		t.Error("zero batch accepted")
	}
	bad = p
	bad.Cores = MaxCores + 1
	if bad.Validate() == nil {
		t.Error("cores above the cap accepted")
	}
	bad = p
	bad.Batch = MaxBatch + 1
	if bad.Validate() == nil {
		t.Error("batch above the cap accepted")
	}
	bad = p
	bad.Core.Utilization = 1.5
	if bad.Validate() == nil {
		t.Error("utilization > 1 accepted")
	}
	bad = p
	bad.Core.FreqHz = 0
	if bad.Validate() == nil {
		t.Error("zero frequency accepted")
	}
}

func TestStringers(t *testing.T) {
	if SeparateBuffer.String() != "separate" || SharedBuffer.String() != "shared" {
		t.Error("BufferKind strings")
	}
	m := MemConfig{Kind: SeparateBuffer, GlobalBytes: 1024 * KiB, WeightBytes: 1152 * KiB}
	if m.String() != "A=1024KB W=1152KB" {
		t.Errorf("MemConfig string = %q", m.String())
	}
	s := MemConfig{Kind: SharedBuffer, GlobalBytes: 1344 * KiB}
	if s.String() != "shared 1344KB" {
		t.Errorf("shared string = %q", s.String())
	}
	if m.TotalBytes() != (1024+1152)*KiB {
		t.Error("TotalBytes")
	}
}
