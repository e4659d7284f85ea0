package search

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
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

// editCheckpoint decodes a checkpoint, applies edit, and writes the result
// to path.
func editCheckpoint(t *testing.T, data []byte, path string, edit func(*serialize.CheckpointJSON)) {
	t.Helper()
	cp, err := serialize.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	edit(cp)
	if data, err = serialize.EncodeCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRejectsNegativeSamples pins that a negative sample count, which
// would hand an island more than its budget, fails at once, naming the
// island and the field.
func TestResumeRejectsNegativeSamples(t *testing.T) {
	ev := evaluatorFor(t, "mobilenetv2")
	opt, paused := pausedRing(t, ev)
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	editCheckpoint(t, paused, bad, func(cp *serialize.CheckpointJSON) {
		cp.Islands[0].Samples = -1 << 40
	})
	start := time.Now()
	_, _, err := RunOrResume(ev, opt, bad)
	if took := time.Since(start); took > time.Second {
		t.Errorf("the resume took %v to fail, want under 1s", took)
	}
	if want := "island 0: samples"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("resume error %v, want one naming %q", err, want)
	}
}

// TestResumeAnyRNGState pins that every 64-bit generator state is a valid
// checkpoint: a GA island's master stream, a migration stream and an SA
// scout's stream each resume from 0, 2^63 and 2^64-1, and two resumes of
// the same file finish identically.
func TestResumeAnyRNGState(t *testing.T) {
	ev := evaluatorFor(t, "mobilenetv2")
	opt, paused := pausedRing(t, ev)
	path := filepath.Join(t.TempDir(), "edited.ckpt")
	for _, field := range []struct {
		name  string
		state func(*serialize.CheckpointJSON) *uint64
	}{
		{"island 1 rng", func(cp *serialize.CheckpointJSON) *uint64 { return &cp.Islands[1].RNG.State }},
		{"island 0 migration_rng", func(cp *serialize.CheckpointJSON) *uint64 { return &cp.Islands[0].Migration.State }},
		{"SA scout rng", func(cp *serialize.CheckpointJSON) *uint64 { return &cp.Islands[2].RNG.State }},
	} {
		for _, state := range []uint64{0, 1 << 63, math.MaxUint64} {
			editCheckpoint(t, paused, path, func(cp *serialize.CheckpointJSON) { *field.state(cp) = state })
			bestA, statsA, err := RunOrResume(ev, opt, path)
			if err != nil {
				t.Fatalf("%s = %d: %v", field.name, state, err)
			}
			bestB, statsB, err := RunOrResume(ev, opt, path)
			if err != nil {
				t.Fatalf("%s = %d, second resume: %v", field.name, state, err)
			}
			sameGenome(t, fmt.Sprintf("%s = %d", field.name, state), bestA, bestB)
			if !reflect.DeepEqual(statsA, statsB) {
				t.Errorf("%s = %d: stats differ between resumes:\n%+v\n%+v", field.name, state, statsA, statsB)
			}
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
