package search

import (
	"fmt"

	"cocco/internal/core"
	"cocco/internal/graph"
	"cocco/internal/partition"
	"cocco/internal/serialize"
)

// Checkpoint plumbing: snapshots are taken at migration barriers, where
// every island is quiescent, and written atomically (temp file + rename) so
// a crash mid-write leaves the previous checkpoint intact. The snapshot
// pins the graph name and an options fingerprint; RunOrResume rejects
// anything that doesn't match, because a resumed trajectory is only
// meaningful under the exact configuration that produced it.

// Fingerprint folds every option that shapes the search trajectory into a
// stable string, applying defaults first so raw and normalized Options
// agree. Checkpoints carry it and RunOrResume checks it before restoring; the
// distributed coordinator (internal/search/dist) also sends it with every
// worker's assignment.
func Fingerprint(opt Options) string { return fingerprint(opt.WithDefaults()) }

// fingerprint folds every option that shapes the search trajectory into a
// stable string. Workers and Trace are deliberately excluded — neither
// changes results — so a checkpoint taken on one machine resumes on another
// with a different worker count. The GA hyper-parameters are core
// constants; the string still prints them, where builds that had them as
// options did, so those builds' checkpoints and fleets still match. For the
// same reason the third flag is a literal false, where builds with the
// retired delta evaluation engine printed its off switch.
func fingerprint(opt Options) string {
	c := opt.Core
	var initHashes []uint64
	for _, p := range c.Init {
		initHashes = append(initHashes, p.AssignHash())
	}
	return fmt.Sprintf(
		"v%d seed=%d islands=%d migrate=%d migrants=%d scouts=%v pop=%d samples=%d tourn=%d cross=%g pnew=%g mut=%g/%g/%g/%g sigma=%g obj=%d/%g mem=%+v flags=%v/%v/%v/%v init=%x",
		serialize.CheckpointVersion,
		c.Seed, opt.Islands, opt.MigrateEvery, opt.Migrants, opt.Scouts,
		c.Population, c.MaxSamples, core.Tournament, core.CrossoverProb, core.PNewInit,
		core.MutModify, core.MutSplit, core.MutMerge, core.MutDSE, core.DSESigmaSteps,
		c.Objective.Metric, c.Objective.Alpha, c.Mem,
		c.DisableCrossover, c.DisableInSituSplit, false, c.DisableGenomeMemo,
		initHashes,
	)
}

// EncodeGenome converts a genome to the wire form (nil-safe). withRes keeps
// the evaluation result — needed for best genomes and job results, dead
// weight for population members, whose results the search never reads.
func EncodeGenome(g *core.Genome, withRes bool) *serialize.GenomeJSON {
	if g == nil {
		return nil
	}
	j := &serialize.GenomeJSON{
		Assign: g.P.Assignment(),
		Mem:    serialize.EncodeMemConfig(g.Mem),
		Cost:   g.Cost,
	}
	if withRes {
		j.Res = serialize.EncodeResult(g.Res)
	}
	return j
}

// DecodeGenome rebuilds a genome, revalidating the partition against the
// graph. needRes rejects entries that must carry a result but don't.
func DecodeGenome(gr *graph.Graph, j *serialize.GenomeJSON, needRes bool) (*core.Genome, error) {
	if j == nil {
		return nil, nil
	}
	p, err := partition.From(gr, j.Assign)
	if err != nil {
		return nil, err
	}
	mem, err := serialize.DecodeMemConfig(j.Mem)
	if err != nil {
		return nil, err
	}
	if needRes && j.Res == nil {
		return nil, fmt.Errorf("missing evaluation result")
	}
	return &core.Genome{P: p, Mem: mem, Cost: j.Cost, Res: serialize.DecodeResult(j.Res)}, nil
}

// CheckCheckpoint verifies that a decoded snapshot belongs to the given
// graph and configuration: graph name, options fingerprint, and ring
// geometry must all match, because a resumed trajectory is only meaningful
// under the exact configuration that produced it. The migrant counters come
// as a pair: a ring writes both from its first barrier on, and files from
// before the counters existed carry neither.
func CheckCheckpoint(cp *serialize.CheckpointJSON, graphName string, opt Options) error {
	opt = opt.WithDefaults()
	if cp.Graph != graphName {
		return fmt.Errorf("search: checkpoint is for graph %q, not %q", cp.Graph, graphName)
	}
	if fp := fingerprint(opt); cp.Config != fp {
		return fmt.Errorf("search: checkpoint config mismatch:\n  have %s\n  want %s", cp.Config, fp)
	}
	ring := opt.Islands + len(opt.Scouts)
	if len(cp.Islands) != ring {
		return fmt.Errorf("search: checkpoint has %d islands, want %d", len(cp.Islands), ring)
	}
	if (cp.MigrantsSent == nil) != (cp.MigrantsReceived == nil) {
		missing := "migrants_recv"
		if cp.MigrantsSent == nil {
			missing = "migrants_sent"
		}
		return fmt.Errorf("search: checkpoint has only one migrant counter: %s is missing", missing)
	}
	if cp.MigrantsSent != nil && len(cp.MigrantsSent) != ring {
		return fmt.Errorf("search: checkpoint has %d migrant-sent counters, want %d", len(cp.MigrantsSent), ring)
	}
	if cp.MigrantsReceived != nil && len(cp.MigrantsReceived) != ring {
		return fmt.Errorf("search: checkpoint has %d migrant-received counters, want %d", len(cp.MigrantsReceived), ring)
	}
	return nil
}

// save writes the ring's barrier snapshot atomically. The bytes depend
// only on the island snapshots and counters, so a fleet writes the file an
// in-process run would write at the same barrier, and either resumes it.
func (l *loop) save() error {
	islands, err := l.ring.Snapshots()
	if err != nil {
		return err
	}
	data, err := serialize.EncodeCheckpoint(&serialize.CheckpointJSON{
		Graph:            l.ev.Graph().Name,
		Config:           fingerprint(l.opt),
		Round:            l.rounds,
		Migrations:       l.migrations,
		MigrantsSent:     l.sent,
		MigrantsReceived: l.recv,
		Islands:          islands,
	})
	if err == nil {
		err = serialize.AtomicWriteFile(l.opt.Checkpoint, data, 0o644)
	}
	if err != nil {
		return fmt.Errorf("search: checkpoint: %w", err)
	}
	return nil
}
