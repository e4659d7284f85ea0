package serialize

import (
	"encoding/json"
	"fmt"

	"cocco/internal/eval"
	"cocco/internal/hw"
)

// Checkpoint wire format for the island-model search orchestrator
// (internal/search). The snapshot is versioned and self-describing: besides
// the per-island state it pins the graph name and an options fingerprint, so
// a resume against the wrong model or configuration fails loudly instead of
// silently diverging. Every field is either an integer, a string, or a
// float64 — Go's encoding/json emits shortest round-trip representations
// for float64, so costs and energies survive a save/load cycle bit-exactly,
// which the resume-determinism contract depends on.

// CheckpointVersion is the current snapshot format version. Decode rejects
// any other value; bumping it is how incompatible layout changes are kept
// from being misread as state.
// Version 1 stored each random stream as a (seed, draw count) pair of
// math/rand's generator; version 2 stores the state word of core.Source.
const CheckpointVersion = 2

// RNGStateJSON pins one core.Source stream: its whole state, plus the seed
// it started from, which restores cross-check against the options.
type RNGStateJSON struct {
	Seed  int64  `json:"seed"`
	State uint64 `json:"state"`
}

// MemConfigJSON is the wire form of a memory configuration.
type MemConfigJSON struct {
	Kind        string `json:"kind"`
	GlobalBytes int64  `json:"global_bytes"`
	WeightBytes int64  `json:"weight_bytes,omitempty"`
}

// EncodeMemConfig converts to the wire form.
func EncodeMemConfig(m hw.MemConfig) MemConfigJSON {
	return MemConfigJSON{Kind: m.Kind.String(), GlobalBytes: m.GlobalBytes, WeightBytes: m.WeightBytes}
}

// DecodeMemConfig rebuilds a memory configuration.
func DecodeMemConfig(j MemConfigJSON) (hw.MemConfig, error) {
	kind, err := hw.ParseBufferKind(j.Kind)
	if err != nil {
		return hw.MemConfig{}, fmt.Errorf("serialize: %w", err)
	}
	return hw.MemConfig{Kind: kind, GlobalBytes: j.GlobalBytes, WeightBytes: j.WeightBytes}, nil
}

// ResultJSON is the wire form of an evaluation result.
type ResultJSON struct {
	EMABytes         int64   `json:"ema_bytes"`
	EnergyPJ         float64 `json:"energy_pj"`
	LatencyCycles    int64   `json:"latency_cycles"`
	AvgBWBytesPerSec float64 `json:"avg_bw_bytes_per_sec"`
	MaxActFootprint  int64   `json:"max_act_footprint"`
	MaxWgtFootprint  int64   `json:"max_wgt_footprint"`
	Infeasible       []int   `json:"infeasible,omitempty"`
	NumSubgraphs     int     `json:"num_subgraphs"`
}

// EncodeResult converts to the wire form (nil-safe).
func EncodeResult(r *eval.Result) *ResultJSON {
	if r == nil {
		return nil
	}
	return &ResultJSON{
		EMABytes:         r.EMABytes,
		EnergyPJ:         r.EnergyPJ,
		LatencyCycles:    r.LatencyCycles,
		AvgBWBytesPerSec: r.AvgBWBytesPerSec,
		MaxActFootprint:  r.MaxActFootprint,
		MaxWgtFootprint:  r.MaxWgtFootprint,
		Infeasible:       append([]int(nil), r.Infeasible...),
		NumSubgraphs:     r.NumSubgraphs,
	}
}

// DecodeResult rebuilds an evaluation result (nil-safe).
func DecodeResult(j *ResultJSON) *eval.Result {
	if j == nil {
		return nil
	}
	return &eval.Result{
		EMABytes:         j.EMABytes,
		EnergyPJ:         j.EnergyPJ,
		LatencyCycles:    j.LatencyCycles,
		AvgBWBytesPerSec: j.AvgBWBytesPerSec,
		MaxActFootprint:  j.MaxActFootprint,
		MaxWgtFootprint:  j.MaxWgtFootprint,
		Infeasible:       append([]int(nil), j.Infeasible...),
		NumSubgraphs:     j.NumSubgraphs,
	}
}

// GenomeJSON is the wire form of one genome: the partition as its raw
// assignment (rebuilt via partition.From at load), the memory config, the
// committed cost, and — where the orchestrator needs it (best genomes) —
// the evaluation result. Population entries omit the result; the search
// only reads their costs.
type GenomeJSON struct {
	Assign []int         `json:"assign"`
	Mem    MemConfigJSON `json:"mem"`
	Cost   float64       `json:"cost"`
	Res    *ResultJSON   `json:"res,omitempty"`
}

// IslandJSON is the paused state of one island. GA islands fill the
// optimizer fields (population, best, history); scout islands fill the
// scout fields (current state, temperature, chain progress) instead. The
// genome memo is a per-process cache and is not part of the snapshot; a
// "memo" key in files from older builds is ignored on decode.
type IslandJSON struct {
	Kind      string       `json:"kind"`
	RNG       RNGStateJSON `json:"rng"`
	Migration RNGStateJSON `json:"migration_rng"`

	// GA optimizer state.
	Started         bool         `json:"started,omitempty"`
	Samples         int          `json:"samples"`
	Generations     int          `json:"generations,omitempty"`
	FeasibleSamples int          `json:"feasible_samples,omitempty"`
	MemoHits        int          `json:"memo_hits,omitempty"`
	BestHistory     []float64    `json:"best_history,omitempty"`
	Population      []GenomeJSON `json:"population,omitempty"`
	Best            *GenomeJSON  `json:"best,omitempty"`

	// Scout state.
	Cur  *GenomeJSON `json:"cur,omitempty"`
	Temp float64     `json:"temp,omitempty"`
}

// CheckpointJSON is the wire form of a paused orchestrator run.
type CheckpointJSON struct {
	Version    int    `json:"version"`
	Graph      string `json:"graph"`
	Config     string `json:"config"`
	Round      int    `json:"round"`
	Migrations int    `json:"migrations"`
	// MigrantsSent and MigrantsReceived count genomes exchanged per ring
	// island since the start of the run (omitted when the ring never
	// migrated). Additive since the counters were introduced: a snapshot
	// without them restores with nil counters.
	MigrantsSent     []int        `json:"migrants_sent,omitempty"`
	MigrantsReceived []int        `json:"migrants_recv,omitempty"`
	Islands          []IslandJSON `json:"islands"`
}

// EncodeCheckpoint marshals a snapshot as compact JSON, stamping the current
// version on the wire form only — the caller's struct is never mutated.
// Compact, because indentation would be most of the bytes; files written
// indented still decode, since whitespace is not part of the format.
func EncodeCheckpoint(c *CheckpointJSON) ([]byte, error) {
	stamped := *c
	stamped.Version = CheckpointVersion
	out, err := json.Marshal(&stamped)
	if err != nil {
		return nil, fmt.Errorf("serialize: checkpoint: %w", err)
	}
	return append(out, '\n'), nil
}

// DecodeCheckpoint unmarshals a snapshot, rejecting unknown versions.
func DecodeCheckpoint(data []byte) (*CheckpointJSON, error) {
	var c CheckpointJSON
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("serialize: checkpoint: %w", err)
	}
	if c.Version != CheckpointVersion {
		return nil, fmt.Errorf("serialize: checkpoint version %d, want %d", c.Version, CheckpointVersion)
	}
	return &c, nil
}
