package dist

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cocco/internal/core"
	"cocco/internal/eval"
	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/search"
	"cocco/internal/tiling"
)

func fixedMem() hw.MemConfig {
	return hw.MemConfig{Kind: hw.SeparateBuffer, GlobalBytes: 1024 * hw.KiB, WeightBytes: 1152 * hw.KiB}
}

func evaluatorFor(t testing.TB, model string) *eval.Evaluator {
	t.Helper()
	return eval.MustNew(models.MustBuild(model), hw.DefaultPlatform(), tiling.DefaultConfig())
}

// startWorker runs an in-process worker — its own evaluator, real TCP on a
// loopback port — and returns its address. The coordinator talks to it
// through the exact byte protocol a separate process would see.
func startWorker(t testing.TB, model string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go Serve(ln, evaluatorFor(t, model), 1)
	return ln.Addr().String()
}

func startWorkers(t testing.TB, model string, n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = startWorker(t, model)
	}
	return addrs
}

// testOptions is the shared budget for the equivalence tests: a 3-island
// ring (2 GA + 1 SA scout) so both migration and scout adoption cross the
// wire.
func testOptions() search.Options {
	return search.Options{
		Core: core.Options{
			Seed: 11, Workers: 1, Population: 20, MaxSamples: 600,
			Objective: eval.Objective{Metric: eval.MetricEMA},
			Mem:       core.MemSearch{Fixed: fixedMem()},
		},
		Islands:      2,
		MigrateEvery: 2,
		Scouts:       []search.ScoutKind{search.ScoutSA},
	}
}

// sameGenome asserts bit-exact equality: assignment, memory config, cost,
// and every evaluation-result field (floats compared by bits).
func sameGenome(t *testing.T, label string, a, b *core.Genome) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: one genome is nil (a=%v b=%v)", label, a != nil, b != nil)
	}
	if a == nil {
		return
	}
	if !reflect.DeepEqual(a.P.Assignment(), b.P.Assignment()) {
		t.Errorf("%s: assignments differ", label)
	}
	if a.Mem != b.Mem {
		t.Errorf("%s: mem %v != %v", label, a.Mem, b.Mem)
	}
	if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
		t.Errorf("%s: cost %v != %v", label, a.Cost, b.Cost)
	}
	ra, rb := a.Res, b.Res
	if (ra == nil) != (rb == nil) {
		t.Fatalf("%s: one result is nil", label)
	}
	if ra == nil {
		return
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Errorf("%s: results differ: %+v vs %+v", label, ra, rb)
	}
}

func sameStats(t *testing.T, label string, want, got *search.Stats) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: stats differ:\nwant %+v\ngot  %+v", label, want, got)
	}
}

// TestDistMatchesSingleProcess is the tentpole contract: dist.Run over 2 and
// 3 worker partitionings of the ring is bit-identical — best genome and full
// Stats — to single-process search.Run with the same Options, on three zoo
// models.
func TestDistMatchesSingleProcess(t *testing.T) {
	for _, model := range []string{"resnet50", "googlenet", "mobilenetv2"} {
		t.Run(model, func(t *testing.T) {
			t.Parallel()
			opt := testOptions()
			wantBest, wantStats, err := search.Run(evaluatorFor(t, model), opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 3} {
				label := fmt.Sprintf("%s/%d-workers", model, k)
				gotBest, gotStats, err := Run(evaluatorFor(t, model), Options{
					Search:  opt,
					Workers: startWorkers(t, model, k),
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameGenome(t, label, wantBest, gotBest)
				sameStats(t, label, wantStats, gotStats)
			}
		})
	}
}

// TestDistCheckpointBytesMatch pins that the coordinator's aggregated
// checkpoint is byte-identical to the one a single-process run writes at the
// same barrier — so either side can resume the other's file.
func TestDistCheckpointBytesMatch(t *testing.T) {
	model := "mobilenetv2"
	dir := t.TempDir()

	sopt := testOptions()
	sopt.Checkpoint = filepath.Join(dir, "single.ckpt")
	if _, _, err := search.Run(evaluatorFor(t, model), sopt); err != nil {
		t.Fatal(err)
	}
	single, err := os.ReadFile(sopt.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{2, 3} {
		dopt := testOptions()
		dopt.Checkpoint = filepath.Join(dir, fmt.Sprintf("dist%d.ckpt", k))
		if _, _, err := Run(evaluatorFor(t, model), Options{
			Search:  dopt,
			Workers: startWorkers(t, model, k),
		}); err != nil {
			t.Fatal(err)
		}
		distBytes, err := os.ReadFile(dopt.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(single, distBytes) {
			t.Errorf("%d workers: checkpoint bytes differ from single-process (%d vs %d bytes)", k, len(distBytes), len(single))
		}
	}
}

// TestDistResumeAcrossPartitionings pauses a 2-worker fleet at MaxRounds,
// then resumes the checkpoint on a 3-worker fleet: the repartitioned,
// paused-and-resumed run must be bit-identical to an uninterrupted
// single-process run.
func TestDistResumeAcrossPartitionings(t *testing.T) {
	model := "googlenet"
	opt := testOptions()
	wantBest, wantStats, err := search.Run(evaluatorFor(t, model), opt)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "dist.ckpt")
	popt := testOptions()
	popt.Checkpoint = ckpt
	popt.MaxRounds = 2
	_, pst, perr := Run(evaluatorFor(t, model), Options{
		Search:  popt,
		Workers: startWorkers(t, model, 2),
	})
	if pst == nil || !pst.Paused {
		t.Fatalf("first leg did not pause (stats %+v, err %v)", pst, perr)
	}

	ropt := testOptions()
	ropt.Checkpoint = ckpt
	gotBest, gotStats, err := RunOrResume(evaluatorFor(t, model), Options{
		Search:  ropt,
		Workers: startWorkers(t, model, 3),
	}, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	sameGenome(t, "resumed", wantBest, gotBest)
	sameStats(t, "resumed", wantStats, gotStats)
}

// TestDistResumesSingleProcessCheckpoint pins the shared-format claim in the
// other direction: a checkpoint written by a paused single-process run is
// picked up by a worker fleet and finishes bit-identical to the
// uninterrupted single-process run.
func TestDistResumesSingleProcessCheckpoint(t *testing.T) {
	model := "resnet50"
	opt := testOptions()
	wantBest, wantStats, err := search.Run(evaluatorFor(t, model), opt)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "single.ckpt")
	popt := testOptions()
	popt.Checkpoint = ckpt
	popt.MaxRounds = 2
	if _, pst, perr := search.Run(evaluatorFor(t, model), popt); pst == nil || !pst.Paused {
		t.Fatalf("single-process leg did not pause (stats %+v, err %v)", pst, perr)
	}

	ropt := testOptions()
	ropt.Checkpoint = ckpt
	gotBest, gotStats, err := RunOrResume(evaluatorFor(t, model), Options{
		Search:  ropt,
		Workers: startWorkers(t, model, 2),
	}, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	sameGenome(t, "fleet-resumed", wantBest, gotBest)
	sameStats(t, "fleet-resumed", wantStats, gotStats)
}

// TestDistPauseOffCheckpointCadence pauses a fleet and an in-process run
// at MaxRounds 2 under CheckpointEvery 3, so no cadence checkpoint has been
// written yet and the pause writes its own: the two files must be
// byte-identical, and a fleet resuming the fleet's file must finish like
// the uninterrupted run.
func TestDistPauseOffCheckpointCadence(t *testing.T) {
	model := "mobilenetv2"
	wantBest, wantStats, err := search.Run(evaluatorFor(t, model), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	offCadence := func(ckpt string, maxRounds int) search.Options {
		o := testOptions()
		o.Checkpoint, o.CheckpointEvery, o.MaxRounds = ckpt, 3, maxRounds
		return o
	}

	single := filepath.Join(dir, "single.ckpt")
	if _, st, err := search.Run(evaluatorFor(t, model), offCadence(single, 2)); st == nil || !st.Paused {
		t.Fatalf("in-process leg did not pause (stats %+v, err %v)", st, err)
	}
	fleet := filepath.Join(dir, "fleet.ckpt")
	if _, st, err := Run(evaluatorFor(t, model), Options{
		Search:  offCadence(fleet, 2),
		Workers: startWorkers(t, model, 2),
	}); st == nil || !st.Paused {
		t.Fatalf("fleet leg did not pause (stats %+v, err %v)", st, err)
	}
	want, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(fleet)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("paused checkpoint bytes differ: fleet %d bytes, in-process %d", len(got), len(want))
	}

	gotBest, gotStats, err := RunOrResume(evaluatorFor(t, model), Options{
		Search:  offCadence(fleet, 0),
		Workers: startWorkers(t, model, 2),
	}, fleet)
	if err != nil {
		t.Fatal(err)
	}
	sameGenome(t, "resumed", wantBest, gotBest)
	sameStats(t, "resumed", wantStats, gotStats)
}

func TestDistOptionValidation(t *testing.T) {
	ev := evaluatorFor(t, "mobilenetv2")
	base := testOptions() // ring = 3
	cases := []struct {
		name string
		opt  Options
		want string
	}{
		{"no workers", Options{Search: base}, "no worker addresses"},
		{"too many workers", Options{Search: base, Workers: []string{"a", "b", "c", "d"}}, "4 workers for a 3-island ring"},
		{"max rounds without checkpoint", Options{
			Search:  func() search.Options { o := base; o.MaxRounds = 1; return o }(),
			Workers: []string{"a"},
		}, "MaxRounds requires a Checkpoint"},
		{"repeated address", Options{Search: base, Workers: []string{"a:1", "b:2", "a:1"}}, "worker a:1 listed twice"},
	}
	for _, tc := range cases {
		if _, _, err := Run(ev, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestSplitRing(t *testing.T) {
	cases := []struct {
		ring, k int
		want    [][2]int
	}{
		{3, 2, [][2]int{{0, 2}, {2, 3}}},
		{3, 3, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{7, 3, [][2]int{{0, 3}, {3, 5}, {5, 7}}},
		{4, 1, [][2]int{{0, 4}}},
	}
	for _, tc := range cases {
		if got := splitRing(tc.ring, tc.k); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitRing(%d,%d) = %v, want %v", tc.ring, tc.k, got, tc.want)
		}
	}
}

// TestDistWorkerProcess is not a test: it is the worker main for the
// kill-and-resume fault-injection test, entered when the test binary is
// re-executed with COCCO_DIST_TEST_WORKER set. It serves until killed.
func TestDistWorkerProcess(t *testing.T) {
	if os.Getenv("COCCO_DIST_TEST_WORKER") == "" {
		t.Skip("worker-process helper; set COCCO_DIST_TEST_WORKER to run")
	}
	model := os.Getenv("COCCO_DIST_TEST_MODEL")
	addrFile := os.Getenv("COCCO_DIST_TEST_ADDRFILE")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		t.Fatal(err)
	}
	if err := Serve(ln, evaluatorFor(t, model), 1); err != nil {
		t.Fatal(err)
	}
}

// spawnWorkerProc re-executes this test binary as a real worker process and
// returns its published address.
func spawnWorkerProc(t *testing.T, model, dir string, i int) (string, *exec.Cmd) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(dir, fmt.Sprintf("worker%d.addr", i))
	cmd := exec.Command(exe, "-test.run", "^TestDistWorkerProcess$")
	cmd.Env = append(os.Environ(),
		"COCCO_DIST_TEST_WORKER=1",
		"COCCO_DIST_TEST_MODEL="+model,
		"COCCO_DIST_TEST_ADDRFILE="+addrFile,
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	deadline := time.Now().Add(60 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil {
			return string(data), cmd
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %d never published its address", i)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDistKillAndResume is the fault-injection leg: a 2-process fleet is
// killed mid-run (one worker SIGKILLed once the first checkpoint lands), and
// a fresh fleet resuming the checkpoint must finish bit-identical to an
// uninterrupted single-process run.
func TestDistKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	model := "mobilenetv2"
	opt := testOptions()
	wantBest, wantStats, err := search.Run(evaluatorFor(t, model), opt)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "dist.ckpt")
	addr0, _ := spawnWorkerProc(t, model, dir, 0)
	addr1, victim := spawnWorkerProc(t, model, dir, 1)

	copt := testOptions()
	copt.Checkpoint = ckpt
	type result struct {
		best  *core.Genome
		stats *search.Stats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		best, st, err := RunOrResume(evaluatorFor(t, model), Options{
			Search:      copt,
			Workers:     []string{addr0, addr1},
			DialTimeout: 30 * time.Second,
		}, ckpt)
		done <- result{best, st, err}
	}()

	// Kill one worker as soon as the first checkpoint barrier has been
	// written, i.e. mid-run with state on disk.
	deadline := time.Now().Add(120 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared before the kill window closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.Process.Kill()
	first := <-done
	if first.err == nil {
		// The fleet beat the kill to the finish line; the run is then simply
		// a full distributed run and must already match.
		t.Log("fleet finished before the kill landed; checking equivalence directly")
		sameGenome(t, "unkilled", wantBest, first.best)
		sameStats(t, "unkilled", wantStats, first.stats)
		return
	}
	t.Logf("fleet died as intended: %v", first.err)

	gotBest, gotStats, err := RunOrResume(evaluatorFor(t, model), Options{
		Search:  copt,
		Workers: startWorkers(t, model, 2),
	}, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	sameGenome(t, "resumed", wantBest, gotBest)
	sameStats(t, "resumed", wantStats, gotStats)
}
