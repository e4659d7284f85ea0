package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cocco/internal/serialize"
)

// queuedManifest is a queued job's manifest for spec, written as given.
func queuedManifest(id string, spec serialize.JobSpecJSON) *serialize.JobManifestJSON {
	return &serialize.JobManifestJSON{
		Version: serialize.JobManifestVersion, ID: id,
		State: serialize.JobStateQueued, Spec: spec,
	}
}

// inadmissibleManifests are three queued manifests that POST /jobs refuses:
// one over the population and ring caps, one naming its metric "EMA",
// which only a strict parser tells from energy, and one with α = -1,
// which eval.Objective would read as Formula 1.
func inadmissibleManifests(t testing.TB) (overCaps, badMetric, negAlpha *serialize.JobManifestJSON) {
	t.Helper()
	spec, err := NormalizeSpec(testSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	big := spec
	big.Population, big.Islands = 5_000, 70
	ema := spec
	ema.Metric = "EMA"
	neg := spec
	neg.Alpha = -1
	return queuedManifest("j000001", big), queuedManifest("j000002", ema), queuedManifest("j000003", neg)
}

func writeManifest(t testing.TB, dir string, m *serialize.JobManifestJSON) {
	t.Helper()
	data, err := serialize.EncodeJobManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, m.ID+".job"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRescanRefusesInadmissibleSpecs: a restarted server admits a manifest's
// spec only as Submit would. Specs that NormalizeSpec refuses fail, durably
// and without running a slice, while a valid job in the same directory
// still runs to the direct run's result.
func TestRescanRefusesInadmissibleSpecs(t *testing.T) {
	dir := t.TempDir()
	spec, err := NormalizeSpec(testSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	overCaps, badMetric, negAlpha := inadmissibleManifests(t)
	for _, m := range []*serialize.JobManifestJSON{queuedManifest("j000000", spec), overCaps, badMetric, negAlpha} {
		writeManifest(t, dir, m)
	}

	s, err := NewServer(Options{Dir: dir, PoolWorkers: 1, SliceRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := waitTerminal(t, s, "j000000", &monotone{})
	if m.State != serialize.JobStateDone || m.Result == nil {
		t.Fatalf("valid job: state %s, result %v, error %q", m.State, m.Result != nil, m.Error)
	}
	if want, _ := directRun(t, spec, 2); !reflect.DeepEqual(want, m.Result) {
		t.Error("valid job's result differs from the direct run")
	}

	for _, tc := range []struct {
		id, want string
	}{{overCaps.ID, "population"}, {badMetric.ID, `unknown metric "EMA"`}, {negAlpha.ID, "alpha"}} {
		m, err := s.Manifest(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if m.State != serialize.JobStateFailed || m.Slices != 0 || !strings.Contains(m.Error, tc.want) {
			t.Errorf("job %s: state %s after %d slices, error %q; want failed after 0 slices with %q",
				tc.id, m.State, m.Slices, m.Error, tc.want)
		}
		data, err := os.ReadFile(filepath.Join(dir, tc.id+".job"))
		if err != nil {
			t.Fatal(err)
		}
		if disk, err := serialize.DecodeJobManifest(data); err != nil || disk.State != serialize.JobStateFailed {
			t.Errorf("job %s: manifest on disk not failed (%v)", tc.id, err)
		}
		if _, err := os.Stat(filepath.Join(dir, tc.id+".ckpt")); !os.IsNotExist(err) {
			t.Errorf("job %s left a checkpoint (%v); no slice may run", tc.id, err)
		}
	}
}

// TestRescanFailsVersion1Checkpoint: a job paused by a build that wrote
// version-1 checkpoints cannot continue its random streams, so after the
// upgrade it fails with the version error, persisted, while a valid queued
// job in the same directory still runs to the direct run's result.
func TestRescanFailsVersion1Checkpoint(t *testing.T) {
	dir := t.TempDir()
	spec, err := NormalizeSpec(testSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	writeManifest(t, dir, queuedManifest("j000000", spec))
	// The configuration testdata/vgg16_indented.ckpt was paused under.
	old, err := NormalizeSpec(serialize.JobSpecJSON{
		Model: "vgg16", Metric: "energy", Alpha: 0.002, GLBKiB: 1024, WGTKiB: 1152,
		Seed: 17, Population: 10, Samples: 60, Islands: 2, MigrateEvery: 2, Scouts: []string{"sa"},
	})
	if err != nil {
		t.Fatal(err)
	}
	paused := queuedManifest("j000001", old)
	paused.State, paused.Slices = serialize.JobStatePaused, 1
	writeManifest(t, dir, paused)
	data, err := os.ReadFile(filepath.Join("..", "search", "testdata", "vgg16_indented.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "j000001.ckpt"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := NewServer(Options{Dir: dir, PoolWorkers: 1, SliceRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := waitTerminal(t, s, "j000001", &monotone{})
	const want = "checkpoint version 1, want 2"
	if m.State != serialize.JobStateFailed || !strings.Contains(m.Error, want) {
		t.Errorf("version-1 job: state %s, error %q; want failed with %q", m.State, m.Error, want)
	}
	disk, err := os.ReadFile(filepath.Join(dir, "j000001.job"))
	if err != nil {
		t.Fatal(err)
	}
	if dm, err := serialize.DecodeJobManifest(disk); err != nil || dm.State != serialize.JobStateFailed || !strings.Contains(dm.Error, want) {
		t.Errorf("version-1 job: manifest on disk does not record the failure (%v)", err)
	}
	m = waitTerminal(t, s, "j000000", &monotone{})
	if m.State != serialize.JobStateDone || m.Result == nil {
		t.Fatalf("valid job: state %s, result %v, error %q", m.State, m.Result != nil, m.Error)
	}
	if want, _ := directRun(t, spec, 2); !reflect.DeepEqual(want, m.Result) {
		t.Error("valid job's result differs from the direct run")
	}
}

// FuzzRescan writes fuzzed bytes as a job manifest and rescans the
// directory on a server without a worker pool. Rescan must return an error
// or re-queue only specs that NormalizeSpec accepts and leaves unchanged;
// it must never panic.
func FuzzRescan(f *testing.F) {
	spec, err := NormalizeSpec(testSpec(11))
	if err != nil {
		f.Fatal(err)
	}
	queued := queuedManifest("j000000", spec)
	done := *queued
	done.State, done.Slices = serialize.JobStateDone, 3
	overCaps, badMetric, negAlpha := inadmissibleManifests(f)
	for _, m := range []*serialize.JobManifestJSON{queued, &done, overCaps, badMetric, negAlpha} {
		m := *m
		m.ID = "j000000"
		data, err := serialize.EncodeJobManifest(&m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "j000000.job"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := &Server{opt: Options{Dir: dir}.withDefaults(), jobs: make(map[string]*job)}
		if err := s.rescan(); err != nil {
			return
		}
		for _, j := range s.queue {
			norm, err := NormalizeSpec(j.spec)
			if err != nil || !reflect.DeepEqual(norm, j.spec) {
				t.Fatalf("re-queued spec %+v does not normalize to itself: %+v, %v", j.spec, norm, err)
			}
		}
	})
}
