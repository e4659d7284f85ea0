package dist

import (
	"encoding/json"
	"fmt"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/search"
	"cocco/internal/serialize"
)

// Message bodies are JSON — the same choice as the checkpoint codec, and for
// the same reason: encoding/json round-trips float64 bit-exactly. Genomes
// travel as the checkpoint wire types (GenomeJSON, IslandJSON), so a genome
// that crosses the wire is the genome that would have crossed a checkpoint.

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

// assignMsg hands a worker its slice of the ring. Options crosses whole;
// its process-local fields (Core.Workers, Init and Trace, the checkpoint
// and pause settings, Progress) are tagged out of the JSON, and the worker
// spends its own Workers budget. On resume, Round and Migrations carry the
// checkpoint position and Islands the slice's restored snapshots; on a
// fresh run, all three are zero.
type assignMsg struct {
	Options search.Options `json:"options"`
	// Config is the coordinator's search.Fingerprint for Options; the
	// worker recomputes it from the decoded options and must agree, so a
	// trajectory-shaping field that failed to cross fails the assignment.
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
