// Package hw models the accelerator platform of the paper's evaluation
// (§5.1.2): a Simba-like core with a 4×4 PE array (each PE an 8×8 MAC
// array), a global (activation) buffer, a weight buffer, 16 GB/s of DRAM
// bandwidth per core at 1 GHz, and analytic 12nm energy/area numbers.
//
// Paper artifacts we cannot run (synthesized RTL, the ARM memory compiler)
// are replaced by an analytic model documented in DESIGN.md: DRAM energy is
// the paper's 12.5 pJ/bit; SRAM energy per byte grows with capacity
// (e0 + e1·sqrt(KB)), reproducing the monotone capacity↔energy trade-off the
// experiments depend on; SRAM area is 1.5 mm²/MB (the paper quotes
// 1–2 mm²/MB in 12nm).
package hw

import (
	"fmt"
	"math"
	"strconv"
)

// Byte-size helpers.
const (
	KiB int64 = 1024
	MiB int64 = 1024 * 1024
)

// BufferKind selects between the paper's two memory designs (§5.3.1).
type BufferKind int

const (
	// SeparateBuffer stores activations in the global buffer and weights in
	// the weight buffer.
	SeparateBuffer BufferKind = iota
	// SharedBuffer stores both in one shared space.
	SharedBuffer
)

func (k BufferKind) String() string {
	if k == SharedBuffer {
		return "shared"
	}
	return "separate"
}

// ParseBufferKind is the inverse of BufferKind.String: "separate" or
// "shared". Any other name is an error.
func ParseBufferKind(s string) (BufferKind, error) {
	for _, k := range [...]BufferKind{SeparateBuffer, SharedBuffer} {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("hw: unknown buffer kind %q (want separate or shared)", s)
}

// MemConfig is a candidate memory configuration — the hardware half of a
// Cocco genome.
type MemConfig struct {
	Kind BufferKind
	// GlobalBytes is the activation (global) buffer capacity; for
	// SharedBuffer it is the single shared capacity and WeightBytes is 0.
	GlobalBytes int64
	// WeightBytes is the weight buffer capacity (SeparateBuffer only).
	WeightBytes int64
}

// TotalBytes is the silicon the configuration spends on buffers.
func (m MemConfig) TotalBytes() int64 { return m.GlobalBytes + m.WeightBytes }

func (m MemConfig) String() string {
	if m.Kind == SharedBuffer {
		return fmt.Sprintf("shared %dKB", m.GlobalBytes/KiB)
	}
	return fmt.Sprintf("A=%dKB W=%dKB", m.GlobalBytes/KiB, m.WeightBytes/KiB)
}

// Validate checks structural sanity.
func (m MemConfig) Validate() error {
	if m.GlobalBytes <= 0 {
		return fmt.Errorf("hw: non-positive global buffer %d", m.GlobalBytes)
	}
	switch m.Kind {
	case SharedBuffer:
		if m.WeightBytes != 0 {
			return fmt.Errorf("hw: shared buffer with non-zero weight buffer %d", m.WeightBytes)
		}
	case SeparateBuffer:
		if m.WeightBytes <= 0 {
			return fmt.Errorf("hw: separate design needs a weight buffer, got %d", m.WeightBytes)
		}
	default:
		return fmt.Errorf("hw: unknown buffer kind %d", m.Kind)
	}
	return nil
}

// MemRange describes the discrete capacity candidates the DSE may pick from
// (§5.3: GLB 128 KB–2048 KB step 64 KB; WGT 144 KB–2304 KB step 72 KB;
// shared 128 KB–3072 KB step 64 KB).
type MemRange struct {
	Min, Max, Step int64
}

// Candidates enumerates the range inclusively.
func (r MemRange) Candidates() []int64 {
	if r.Step <= 0 || r.Max < r.Min {
		return nil
	}
	var out []int64
	for v := r.Min; v <= r.Max; v += r.Step {
		out = append(out, v)
	}
	return out
}

// Clamp rounds v to the nearest candidate in the range: Min below it, the
// last candidate above it (Max only when Max is on the grid).
func (r MemRange) Clamp(v int64) int64 {
	if v <= r.Min {
		return r.Min
	}
	if last := r.Min + int64(r.Count()-1)*r.Step; v >= last {
		return last
	}
	return r.Min + (v-r.Min+r.Step/2)/r.Step*r.Step
}

// Contains reports whether v is a valid candidate.
func (r MemRange) Contains(v int64) bool {
	if v < r.Min || v > r.Max {
		return false
	}
	return (v-r.Min)%r.Step == 0
}

// Count returns the number of candidates.
func (r MemRange) Count() int {
	if r.Step <= 0 || r.Max < r.Min {
		return 0
	}
	return int((r.Max-r.Min)/r.Step) + 1
}

// MaxRangeCandidates caps a searched range and each axis of a dse grid; the
// paper's largest range has 47 candidates.
const MaxRangeCandidates = 4_096

// Validate checks a searched range: a positive minimum and step, and at
// least one and at most MaxRangeCandidates candidates, counted without
// overflow.
func (r MemRange) Validate() error {
	switch {
	case r.Min < 1:
		return fmt.Errorf("hw: range minimum must be >= 1, got %d", r.Min)
	case r.Step < 1:
		return fmt.Errorf("hw: range step must be >= 1, got %d", r.Step)
	case r.Max < r.Min:
		return fmt.Errorf("hw: empty range [%d, %d]", r.Min, r.Max)
	case (r.Max-r.Min)/r.Step >= MaxRangeCandidates:
		return fmt.Errorf("hw: range must have at most %d candidates, got %d", MaxRangeCandidates, (r.Max-r.Min)/r.Step+1)
	}
	return nil
}

// PaperGlobalRange is the paper's global-buffer search range.
func PaperGlobalRange() MemRange { return MemRange{Min: 128 * KiB, Max: 2048 * KiB, Step: 64 * KiB} }

// PaperWeightRange is the paper's weight-buffer search range.
func PaperWeightRange() MemRange { return MemRange{Min: 144 * KiB, Max: 2304 * KiB, Step: 72 * KiB} }

// PaperSharedRange is the paper's shared-buffer search range.
func PaperSharedRange() MemRange { return MemRange{Min: 128 * KiB, Max: 3072 * KiB, Step: 64 * KiB} }

// Core describes one NPU core.
type Core struct {
	// PERows×PECols PEs, each with MACRows×MACCols multipliers
	// (Simba-like: 4×4 PEs of 8×8 MACs = 1024 MACs/cycle).
	PERows, PECols   int
	MACRows, MACCols int
	// FreqHz is the clock (1 GHz in the paper).
	FreqHz int64
	// DRAMBytesPerSec is the external bandwidth per core (16 GB/s).
	DRAMBytesPerSec int64
	// Utilization derates the peak MAC throughput for residual losses the
	// spatial mapping model cannot see (pipeline bubbles, drain/fill);
	// per-layer packing efficiency comes from internal/mapper on top of
	// this. The paper's mapper "dynamically configures" the PE parallelism
	// for high utilization, so the default residual derate is small.
	Utilization float64
}

// DefaultCore returns the paper's evaluation platform (2 TOPS at 1 GHz:
// 1024 MACs × 2 ops × 1 GHz ≈ 2 TOPS).
func DefaultCore() Core {
	return Core{
		PERows: 4, PECols: 4,
		MACRows: 8, MACCols: 8,
		FreqHz:          1_000_000_000,
		DRAMBytesPerSec: 16_000_000_000,
		Utilization:     0.95,
	}
}

// GeometryID returns a compact, filesystem-safe identifier of the core
// geometry, distinct for distinct Core values. It names the per-geometry
// warm-start cache files a DSE sweep writes: every config sharing one core
// geometry (whatever its memory capacities, core count, or batch) maps to
// the same ID and therefore the same snapshot file.
func (c Core) GeometryID() string {
	return fmt.Sprintf("pe%dx%d_mac%dx%d_f%d_bw%d_u%s",
		c.PERows, c.PECols, c.MACRows, c.MACCols, c.FreqHz, c.DRAMBytesPerSec,
		strconv.FormatFloat(c.Utilization, 'g', -1, 64))
}

// MACsPerCycle is the peak multiply-accumulates per cycle.
func (c Core) MACsPerCycle() int64 {
	return int64(c.PERows) * int64(c.PECols) * int64(c.MACRows) * int64(c.MACCols)
}

// ComputeCycles returns the cycles needed for the given MAC count under the
// derated throughput.
func (c Core) ComputeCycles(macs int64) int64 {
	eff := float64(c.MACsPerCycle()) * c.Utilization
	if eff <= 0 {
		return macs
	}
	return int64(math.Ceil(float64(macs) / eff))
}

// DRAMCycles returns the cycles needed to move the given bytes over the
// core's DRAM interface.
func (c Core) DRAMCycles(bytes int64) int64 {
	bytesPerCycle := float64(c.DRAMBytesPerSec) / float64(c.FreqHz)
	if bytesPerCycle <= 0 {
		return bytes
	}
	return int64(math.Ceil(float64(bytes) / bytesPerCycle))
}

// Energy holds the analytic 12nm energy model. All values in picojoules.
type Energy struct {
	// DRAMPerBit is the external access energy (12.5 pJ/bit, paper §5.1.2).
	DRAMPerBit float64
	// SRAMBase and SRAMSlope give the on-chip buffer energy per byte:
	// pJ/B = SRAMBase + SRAMSlope·sqrt(capacityKB). Larger SRAMs burn more
	// per access (longer lines, more banks) — the monotone relation the
	// paper's trade-off needs.
	SRAMBase, SRAMSlope float64
	// MACPerOp is the energy of one multiply-accumulate.
	MACPerOp float64
	// CrossbarPerByte is the core-to-core transfer energy over the crossbar
	// (multi-core weight rotation, §5.4.2; Arteris-IP-like NoC).
	CrossbarPerByte float64
}

// DefaultEnergy returns the model constants. DRAM matches the paper; the
// SRAM/MAC/crossbar constants are representative 12nm figures (see
// DESIGN.md substitutions).
func DefaultEnergy() Energy {
	return Energy{
		DRAMPerBit:      12.5,
		SRAMBase:        0.08,
		SRAMSlope:       0.012,
		MACPerOp:        0.05,
		CrossbarPerByte: 1.6,
	}
}

// DRAMBytes returns the energy (pJ) of moving n bytes to/from DRAM.
func (e Energy) DRAMBytes(n int64) float64 { return float64(n) * 8 * e.DRAMPerBit }

// SRAMPerByte returns the pJ/byte of a buffer with the given capacity.
func (e Energy) SRAMPerByte(capacityBytes int64) float64 {
	kb := float64(capacityBytes) / 1024
	if kb < 1 {
		kb = 1
	}
	return e.SRAMBase + e.SRAMSlope*math.Sqrt(kb)
}

// SRAMBytes returns the energy (pJ) of n byte-accesses to a buffer of the
// given capacity.
func (e Energy) SRAMBytes(n, capacityBytes int64) float64 {
	return float64(n) * e.SRAMPerByte(capacityBytes)
}

// MACs returns the energy (pJ) of n multiply-accumulates.
func (e Energy) MACs(n int64) float64 { return float64(n) * e.MACPerOp }

// Crossbar returns the energy (pJ) of moving n bytes between cores.
func (e Energy) Crossbar(n int64) float64 { return float64(n) * e.CrossbarPerByte }

// Area holds the analytic area model.
type Area struct {
	// SRAMMM2PerMB is the buffer area (paper: 1–2 mm²/MB in 12nm).
	SRAMMM2PerMB float64
}

// DefaultArea returns the model constants.
func DefaultArea() Area { return Area{SRAMMM2PerMB: 1.5} }

// BufferMM2 returns the silicon area of the given buffer capacity.
func (a Area) BufferMM2(bytes int64) float64 {
	return a.SRAMMM2PerMB * float64(bytes) / float64(MiB)
}

// Platform bundles the full hardware description used by the evaluator.
type Platform struct {
	Core   Core
	Energy Energy
	Area   Area
	// Cores is the number of interconnected cores (≥1). Multi-core runs
	// share subgraph weights across cores and rotate them over the crossbar
	// (Tangram-BSD / NN-Baton style, §5.4.2).
	Cores int
	// Batch is the number of samples processed together (§5.4.3). Weights
	// are reused across the batch within a subgraph.
	Batch int
}

// DefaultPlatform is a single-core, batch-1 instance of the paper platform.
func DefaultPlatform() Platform {
	return Platform{Core: DefaultCore(), Energy: DefaultEnergy(), Area: DefaultArea(), Cores: 1, Batch: 1}
}

// Platform caps, far above Table 3's 4 cores and batch 8, and a buffer
// cap of 1 TiB, so a capacity in KiB times KiB stays far from overflow.
const (
	MaxCores     = 256
	MaxBatch     = 1_024
	MaxBufferKiB = 1 << 30
)

// Validate checks structural sanity and the platform caps.
func (p Platform) Validate() error {
	if p.Cores < 1 {
		return fmt.Errorf("hw: cores must be >= 1, got %d", p.Cores)
	}
	if p.Cores > MaxCores {
		return fmt.Errorf("hw: cores must be <= %d, got %d", MaxCores, p.Cores)
	}
	if p.Batch < 1 {
		return fmt.Errorf("hw: batch must be >= 1, got %d", p.Batch)
	}
	if p.Batch > MaxBatch {
		return fmt.Errorf("hw: batch must be <= %d, got %d", MaxBatch, p.Batch)
	}
	if p.Core.FreqHz <= 0 || p.Core.DRAMBytesPerSec <= 0 {
		return fmt.Errorf("hw: non-positive core rates")
	}
	if p.Core.Utilization <= 0 || p.Core.Utilization > 1 {
		return fmt.Errorf("hw: utilization must be in (0,1], got %g", p.Core.Utilization)
	}
	return nil
}
