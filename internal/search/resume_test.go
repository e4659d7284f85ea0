package search

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/serialize"
)

// pausedRing runs a small ring (2 GA islands plus an SA scout on
// mobilenetv2) for one round and returns its options, without the pause,
// and the checkpoint the pause wrote.
func pausedRing(t testing.TB, ev *eval.Evaluator) (Options, []byte) {
	t.Helper()
	opt := Options{
		Core: core.Options{
			Seed: 3, Workers: 1, Population: 10, MaxSamples: 60,
			Objective: eval.Objective{Metric: eval.MetricEMA},
			Mem:       core.MemSearch{Fixed: fixedMem()},
		},
		Islands: 2, MigrateEvery: 1, Scouts: []ScoutKind{ScoutSA},
	}
	paused := opt
	paused.Checkpoint = filepath.Join(t.TempDir(), "paused.ckpt")
	paused.MaxRounds = 1
	if _, _, err := Run(ev, paused); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(paused.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	return opt, data
}

// TestResumeRejectsHugeDraws pins the bound on a checkpoint's RNG
// positions: restoring replays every recorded draw, so a well-formed file
// with 2^40 draws used to hold a resume for over an hour. Each must now
// fail at once, naming the island and the field.
func TestResumeRejectsHugeDraws(t *testing.T) {
	ev := evaluatorFor(t, "mobilenetv2")
	opt, paused := pausedRing(t, ev)
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	for _, tc := range []struct {
		name, want string
		edit       func(*serialize.CheckpointJSON)
	}{
		{"GA island rng", "island 1: rng.draws", func(cp *serialize.CheckpointJSON) {
			cp.Islands[1].RNG.Draws = 1 << 40
		}},
		{"GA island migration_rng", "island 0: migration_rng.draws", func(cp *serialize.CheckpointJSON) {
			cp.Islands[0].Migration.Draws = 1 << 40
		}},
		{"SA scout rng", "island 2: rng.draws", func(cp *serialize.CheckpointJSON) {
			cp.Islands[2].RNG.Draws = 1 << 40
		}},
		{"negative samples", "island 0: samples", func(cp *serialize.CheckpointJSON) {
			cp.Islands[0].Samples = -1 << 40
		}},
	} {
		cp, err := serialize.DecodeCheckpoint(paused)
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(cp)
		data, err := serialize.EncodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, _, err = RunOrResume(ev, opt, bad)
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: the resume took %v to fail, want under 1s", tc.name, took)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: resume error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// FuzzCheckpointResume resumes mutated checkpoints of a small paused ring:
// whatever the bytes, RunOrResume must return a result or an error, never
// panic, and never spend longer than the run's own budget.
func FuzzCheckpointResume(f *testing.F) {
	ev := evaluatorFor(f, "mobilenetv2")
	opt, paused := pausedRing(f, ev)
	f.Add(paused)
	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _ = RunOrResume(ev, opt, path) // an error is a valid outcome; a panic fails the input
	})
}
