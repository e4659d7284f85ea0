package dist

import (
	"encoding/json"
	"fmt"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/search"
	"cocco/internal/serialize"
)

// Message bodies are JSON — the same choice as the checkpoint codec, and for
// the same reason: encoding/json round-trips float64 bit-exactly, and every
// payload here is made of the checkpoint wire types (GenomeJSON,
// IslandJSON), so a genome that crosses the wire is the genome that would
// have crossed a checkpoint.

// helloMsg opens a session. Both sides exchange their evaluator fingerprint
// and refuse to proceed on mismatch: a worker evaluating a different graph,
// tiling, platform, or core geometry would silently diverge, never error.
type helloMsg struct {
	Proto       int    `json:"proto"`
	Fingerprint string `json:"fingerprint"`
}

// evFingerprint identifies everything the worker's evaluator must share with
// the coordinator's for results to be interchangeable: graph identity (name
// and size), tiling and core geometry (via the cost-cache fingerprint), and
// the full platform — cores, batch, energy, and area shape evaluation
// results even though they don't shape subgraph costing.
func evFingerprint(ev *eval.Evaluator) string {
	g := ev.Graph()
	return fmt.Sprintf("proto=%d %s nodes=%d edges=%d platform=%+v",
		ProtocolVersion, ev.CacheFingerprint(), g.Len(), g.Edges(), ev.Platform())
}

// optionsWire is the serializable subset of search.Options a worker needs to
// rebuild its ring slice. Workers, Checkpoint, CheckpointEvery, and
// MaxRounds stay coordinator-side (none shape the trajectory); Init and
// Trace are rejected by the coordinator (a func and seed partitions don't
// cross the wire). The encoding is self-verifying: the worker recomputes
// search.Fingerprint from the decoded options and compares it with the
// coordinator's, so a field added to Options but forgotten here fails the
// assignment loudly instead of diverging silently.
//
// The GA hyper-parameters are core constants and do not travel. A peer
// built while they were options still sends them (json ignores the unknown
// fields here), or reads their absence as its defaults, which equal the
// constants; both sides fingerprint the same values either way, so
// ProtocolVersion did not change.
type optionsWire struct {
	Seed       int64 `json:"seed"`
	Population int   `json:"population"`
	MaxSamples int   `json:"max_samples"`

	Metric int     `json:"metric"`
	Alpha  float64 `json:"alpha"`

	MemSearch bool                    `json:"mem_search,omitempty"`
	MemKind   string                  `json:"mem_kind"`
	MemGlobal hw.MemRange             `json:"mem_global,omitempty"`
	MemWeight hw.MemRange             `json:"mem_weight,omitempty"`
	MemFixed  serialize.MemConfigJSON `json:"mem_fixed"`

	DisableCrossover   bool `json:"disable_crossover,omitempty"`
	DisableInSituSplit bool `json:"disable_in_situ_split,omitempty"`
	DisableDeltaEval   bool `json:"disable_delta_eval,omitempty"`
	DisableGenomeMemo  bool `json:"disable_genome_memo,omitempty"`

	Islands      int      `json:"islands"`
	MigrateEvery int      `json:"migrate_every"`
	Migrants     int      `json:"migrants"`
	Scouts       []string `json:"scouts,omitempty"`
}

func encodeOptions(opt search.Options) optionsWire {
	c := opt.Core
	w := optionsWire{
		Seed: c.Seed, Population: c.Population, MaxSamples: c.MaxSamples,
		Metric: int(c.Objective.Metric), Alpha: c.Objective.Alpha,
		MemSearch: c.Mem.Search, MemKind: c.Mem.Kind.String(),
		MemGlobal: c.Mem.Global, MemWeight: c.Mem.Weight,
		MemFixed:           serialize.EncodeMemConfig(c.Mem.Fixed),
		DisableCrossover:   c.DisableCrossover,
		DisableInSituSplit: c.DisableInSituSplit,
		DisableDeltaEval:   c.DisableDeltaEval,
		DisableGenomeMemo:  c.DisableGenomeMemo,
		Islands:            opt.Islands, MigrateEvery: opt.MigrateEvery, Migrants: opt.Migrants,
	}
	for _, s := range opt.Scouts {
		w.Scouts = append(w.Scouts, s.String())
	}
	return w
}

// decodeOptions rebuilds search.Options for a worker process; workers is the
// process-local scoring-goroutine budget.
func decodeOptions(w optionsWire, workers int) (search.Options, error) {
	kind, err := hw.ParseBufferKind(w.MemKind)
	if err != nil {
		return search.Options{}, fmt.Errorf("dist: %w", err)
	}
	fixed, err := serialize.DecodeMemConfig(w.MemFixed)
	if err != nil {
		return search.Options{}, err
	}
	opt := search.Options{
		Core: core.Options{
			Seed: w.Seed, Workers: workers, Population: w.Population, MaxSamples: w.MaxSamples,
			Objective: eval.Objective{Metric: eval.Metric(w.Metric), Alpha: w.Alpha},
			Mem: core.MemSearch{
				Search: w.MemSearch, Kind: kind,
				Global: w.MemGlobal, Weight: w.MemWeight, Fixed: fixed,
			},
			DisableCrossover:   w.DisableCrossover,
			DisableInSituSplit: w.DisableInSituSplit,
			DisableDeltaEval:   w.DisableDeltaEval,
			DisableGenomeMemo:  w.DisableGenomeMemo,
		},
		Islands:      w.Islands,
		MigrateEvery: w.MigrateEvery,
		Migrants:     w.Migrants,
	}
	for _, s := range w.Scouts {
		k, err := search.ParseScoutKind(s)
		if err != nil {
			return search.Options{}, fmt.Errorf("dist: %w", err)
		}
		opt.Scouts = append(opt.Scouts, k)
	}
	return opt, nil
}

// assignMsg hands a worker its slice of the ring. On resume, Round and
// Migrations carry the checkpoint position and Islands the slice's restored
// snapshots; on a fresh run, all three are zero.
type assignMsg struct {
	Options optionsWire `json:"options"`
	// Config is the coordinator's search.Fingerprint for the full Options;
	// the worker recomputes it from the decoded subset and must agree.
	Config     string                 `json:"config"`
	Lo         int                    `json:"lo"`
	Hi         int                    `json:"hi"`
	Round      int                    `json:"round,omitempty"`
	Migrations int                    `json:"migrations,omitempty"`
	Islands    []serialize.IslandJSON `json:"islands,omitempty"`
}

// steppedMsg reports one round of local stepping.
type steppedMsg struct {
	Progressed []bool `json:"progressed"`
	Done       []bool `json:"done"`
}

// emigrantsMsg carries each hosted island's migrant selection, in ring
// order. Genomes travel with their evaluation results: that is exactly what
// an in-process clone carries, so a scout adopting a migrant sees identical
// state either way.
type emigrantsMsg struct {
	Out [][]serialize.GenomeJSON `json:"out"`
}

// commitIsland delivers immigrants to one hosted island (global ring index).
type commitIsland struct {
	Island  int                    `json:"island"`
	Genomes []serialize.GenomeJSON `json:"genomes"`
}

// commitMsg commits one or more islands' immigrants. No reply: the worker's
// sequential frame loop applies it before any later request on the session.
type commitMsg struct {
	Islands []commitIsland `json:"islands"`
}

// snapshotMsg returns barrier-quiescent snapshots for the hosted slice.
type snapshotMsg struct {
	Islands []serialize.IslandJSON `json:"islands"`
}

// resultMsg returns the hosted islands' final statistics and best genomes
// (nil entries for islands with no feasible best), in ring order.
type resultMsg struct {
	Stats []core.Stats            `json:"stats"`
	Bests []*serialize.GenomeJSON `json:"bests"`
}

// errorMsg terminates a session with a reason.
type errorMsg struct {
	Err string `json:"err"`
}

// writeMsg marshals body and writes it as one frame.
func writeMsg(w frameWriter, t MsgType, body any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("dist: encode %d: %w", t, err)
	}
	return w.writeFrame(t, payload)
}
