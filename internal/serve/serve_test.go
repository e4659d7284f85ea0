package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cocco/internal/core"
	"cocco/internal/hw"
	"cocco/internal/search"
	"cocco/internal/serialize"
)

// testSpec mirrors the dist package's testOptions budget: 2 GA islands + an
// SA scout, 600 samples per island, so migration, scout adoption, and many
// slice boundaries all happen.
func testSpec(seed int64) serialize.JobSpecJSON {
	return serialize.JobSpecJSON{
		Model: "mobilenetv2", Metric: "ema",
		Seed: seed, Population: 20, Samples: 600,
		Islands: 2, MigrateEvery: 2, Scouts: []string{"sa"},
	}
}

// directRun is the reference: the same normalized spec pushed straight
// through search.RunOrResume on the server's slice schedule — sliceRounds
// rounds per call, each later call resuming the checkpoint file, as
// runSlice does. The genome memo is per-process, so a checkpoint's memo
// hits depend on where the run resumed; the same schedule reproduces them.
// Returns the encoded best genome and the final checkpoint bytes.
func directRun(t *testing.T, spec serialize.JobSpecJSON, sliceRounds int) (*serialize.GenomeJSON, []byte) {
	t.Helper()
	spec, err := NormalizeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := BuildOptions(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt.Core.Workers = 1
	opt.Checkpoint = filepath.Join(t.TempDir(), "direct.ckpt")
	opt.MaxRounds = sliceRounds
	ev, err := NewEvaluator(spec)
	if err != nil {
		t.Fatal(err)
	}
	best, st, err := search.RunOrResume(ev, opt, opt.Checkpoint)
	for st != nil && st.Paused {
		best, st, err = search.RunOrResume(ev, opt, opt.Checkpoint)
	}
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(opt.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	return search.EncodeGenome(best, true), ckpt
}

// monotone asserts that successive manifest snapshots from one server
// incarnation never move backwards. (Across a SIGKILL the in-memory per-round
// progress can be ahead of the last durable slice boundary, so callers reset
// the watcher after a restart.)
type monotone struct {
	slices, rounds, samples int
}

func (w *monotone) check(t *testing.T, m *serialize.JobManifestJSON) {
	t.Helper()
	if m.Slices < w.slices {
		t.Fatalf("slices went backwards: %d -> %d", w.slices, m.Slices)
	}
	w.slices = m.Slices
	if m.Progress == nil {
		return
	}
	if m.Progress.Rounds < w.rounds {
		t.Fatalf("rounds went backwards: %d -> %d", w.rounds, m.Progress.Rounds)
	}
	if m.Progress.Samples < w.samples {
		t.Fatalf("samples went backwards: %d -> %d", w.samples, m.Progress.Samples)
	}
	w.rounds, w.samples = m.Progress.Rounds, m.Progress.Samples
}

// waitTerminal waits until the job reaches a terminal state.
func waitTerminal(t *testing.T, s *Server, id string, w *monotone) *serialize.JobManifestJSON {
	t.Helper()
	return waitUntil(t, s, id, w, func(m *serialize.JobManifestJSON) bool { return terminal(m.State) })
}

// waitUntil follows the job through Watch until reached holds for its
// manifest, asserting progress monotonicity along the way.
func waitUntil(t *testing.T, s *Server, id string, w *monotone, reached func(*serialize.JobManifestJSON) bool) *serialize.JobManifestJSON {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		m, ch, err := s.Watch(id)
		if err != nil {
			t.Fatal(err)
		}
		w.check(t, m)
		if reached(m) {
			return m
		}
		select {
		case <-ch:
		case <-time.After(time.Until(deadline)):
			t.Fatalf("job %s timed out waiting (last %s, %d slices)", id, m.State, m.Slices)
		}
	}
}

// TestConcurrentJobsMatchDirect is the fairness/correctness pin: N
// concurrent jobs time-sliced over a 1-worker pool each produce results
// bit-identical to running the same spec serially through directRun on the
// same slice schedule — result genome and on-disk checkpoint bytes both.
func TestConcurrentJobsMatchDirect(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServer(Options{Dir: dir, PoolWorkers: 1, SliceRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	seeds := []int64{11, 12, 13}
	ids := make([]string, len(seeds))
	for i, seed := range seeds {
		id, err := s.Submit(testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		m := waitTerminal(t, s, id, &monotone{})
		if m.State != serialize.JobStateDone {
			t.Fatalf("job %s: state %s, error %q", id, m.State, m.Error)
		}
		if m.Result == nil {
			t.Fatalf("job %s finished without a result", id)
		}
		if m.Slices < 2 {
			t.Errorf("job %s ran in %d slices; want >= 2 so the round-robin is actually exercised", id, m.Slices)
		}
		wantResult, wantCkpt := directRun(t, testSpec(seeds[i]), 2)
		if !reflect.DeepEqual(wantResult, m.Result) {
			t.Errorf("job %s: served result differs from the direct run", id)
		}
		gotCkpt, err := os.ReadFile(filepath.Join(dir, id+".ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantCkpt, gotCkpt) {
			t.Errorf("job %s: checkpoint bytes differ from direct run (%d vs %d bytes)", id, len(gotCkpt), len(wantCkpt))
		}
		// The progress islands must name the ring in order: GA islands first,
		// then scouts.
		if m.Progress == nil || len(m.Progress.Islands) != 3 {
			t.Fatalf("job %s: progress islands %+v, want 3", id, m.Progress)
		}
		for i, want := range []string{"ga", "ga", "sa"} {
			if got := m.Progress.Islands[i].Kind; got != want {
				t.Errorf("job %s island %d kind %q, want %q", id, i, got, want)
			}
		}
	}
}

// TestRestartResumesJobs closes a server mid-job and reopens the directory:
// the rescanned job must resume from its checkpoint and finish bit-identical
// to a direct run on the same one-round slices, and the ID counter must not
// collide.
func TestRestartResumesJobs(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServer(Options{Dir: dir, PoolWorkers: 1, SliceRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(testSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one slice land durably, then stop the world.
	deadline := time.Now().Add(120 * time.Second)
	for {
		m, err := s.Manifest(id)
		if err != nil {
			t.Fatal(err)
		}
		if m.Slices >= 1 || terminal(m.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no slice completed before the restart window")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()

	s2, err := NewServer(Options{Dir: dir, PoolWorkers: 1, SliceRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	m := waitTerminal(t, s2, id, &monotone{})
	if m.State != serialize.JobStateDone || m.Result == nil {
		t.Fatalf("resumed job: state %s, result %v, error %q", m.State, m.Result != nil, m.Error)
	}
	wantResult, wantCkpt := directRun(t, testSpec(11), 1)
	if !reflect.DeepEqual(wantResult, m.Result) {
		t.Error("resumed result differs from the direct run")
	}
	gotCkpt, err := os.ReadFile(filepath.Join(dir, id+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantCkpt, gotCkpt) {
		t.Error("resumed checkpoint bytes differ from direct run")
	}
	// A fresh submit after the restart must not reuse the recovered ID.
	id2, err := s2.Submit(testSpec(12))
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("restarted server reissued job ID %s", id)
	}
}

// TestCancelSemantics: a queued job cancels immediately; a running job lands
// cancelled at its next slice boundary with its checkpoint still on disk.
func TestCancelSemantics(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServer(Options{Dir: dir, PoolWorkers: 1, SliceRounds: 125})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Two jobs on a 1-worker pool: the first occupies the worker, the second
	// waits in the queue and must cancel without ever running. The first
	// job needs two 125-round slices (10,000 samples per island at 40 a
	// round), so its first slice outlasts the second job's submit and
	// cancel, and the cancel lands at that slice's boundary. With 1-round
	// slices the worker reached the queued job first in about one run of
	// ten.
	long := testSpec(11)
	long.Samples = 10_000
	running, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, s, running, &monotone{}, func(m *serialize.JobManifestJSON) bool {
		return m.State == serialize.JobStateRunning
	})
	queued, err := s.Submit(testSpec(12))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	m, err := s.Manifest(queued)
	if err != nil {
		t.Fatal(err)
	}
	if m.State != serialize.JobStateCancelled {
		t.Fatalf("queued job after cancel: state %s, want cancelled", m.State)
	}
	if m.Slices != 0 {
		t.Errorf("cancelled-while-queued job ran %d slices", m.Slices)
	}
	if err := s.Cancel(queued); err == nil {
		t.Error("cancelling a terminal job succeeded; want ErrJobTerminal")
	}

	if err := s.Cancel(running); err != nil {
		t.Fatal(err)
	}
	m = waitTerminal(t, s, running, &monotone{})
	if m.State != serialize.JobStateCancelled {
		t.Fatalf("running job after cancel: state %s, want cancelled", m.State)
	}
	if m.Slices != 1 {
		t.Errorf("running job cancelled after %d slices, want 1", m.Slices)
	}
	if _, err := os.Stat(s.checkpointPath(running)); err != nil {
		t.Errorf("cancelled job's checkpoint: %v", err)
	}
	if err := s.Cancel("j999999"); err != ErrUnknownJob {
		t.Errorf("cancel of unknown job: %v, want ErrUnknownJob", err)
	}
}

// submitValidationCases are malformed specs, each one field off testSpec,
// and a substring of admission's refusal.
var submitValidationCases = []struct {
	name string
	mut  func(*serialize.JobSpecJSON)
	want string
}{
	{"no model", func(sp *serialize.JobSpecJSON) { sp.Model = "" }, "model is required"},
	{"bad model", func(sp *serialize.JobSpecJSON) { sp.Model = "notanet" }, "notanet"},
	{"bad tiling", func(sp *serialize.JobSpecJSON) { sp.Tiling = "bogus" }, "tiling"},
	{"no samples", func(sp *serialize.JobSpecJSON) { sp.Samples = 0 }, "samples"},
	{"bad metric", func(sp *serialize.JobSpecJSON) { sp.Metric = "joules" }, "metric"},
	{"bad scout", func(sp *serialize.JobSpecJSON) { sp.Scouts = []string{"psychic"} }, "scout"},
	{"mem search without alpha", func(sp *serialize.JobSpecJSON) { sp.MemSearch = true }, "alpha"},
	{"negative alpha", func(sp *serialize.JobSpecJSON) { sp.Alpha = -1 }, "alpha"},
	{"mem search with negative alpha", func(sp *serialize.JobSpecJSON) {
		sp.MemSearch, sp.Alpha = true, -1
	}, "alpha"},
	{"NaN alpha", func(sp *serialize.JobSpecJSON) { sp.Alpha = math.NaN() }, "alpha"},
	{"infinite alpha", func(sp *serialize.JobSpecJSON) { sp.Alpha = math.Inf(1) }, "alpha"},
	{"tiny population", func(sp *serialize.JobSpecJSON) { sp.Population = 1 }, "population"},
	{"huge population", func(sp *serialize.JobSpecJSON) { sp.Population = 2_000_000_000 }, "population"},
	{"huge samples", func(sp *serialize.JobSpecJSON) { sp.Samples = core.MaxSamples + 1 }, "samples"},
	{"huge ring", func(sp *serialize.JobSpecJSON) {
		sp.Islands, sp.Scouts = search.MaxRing, []string{"sa"}
	}, "islands + scouts"},
	{"overflowing ring", func(sp *serialize.JobSpecJSON) {
		sp.Islands, sp.Scouts = math.MaxInt, []string{"sa"}
	}, "islands + scouts"},
	{"huge migrants", func(sp *serialize.JobSpecJSON) { sp.Migrants = search.MaxMigrants + 1 }, "migrants"},
	{"huge cores", func(sp *serialize.JobSpecJSON) { sp.Cores = hw.MaxCores + 1 }, "cores"},
	{"huge batch", func(sp *serialize.JobSpecJSON) { sp.Batch = hw.MaxBatch + 1 }, "batch"},
	// 2^54+1 KiB is 2^64+1024 bytes: unchecked, it wraps to a 1 KiB buffer.
	{"wrapping glb", func(sp *serialize.JobSpecJSON) { sp.GLBKiB = 1<<54 + 1 }, "glb_kib"},
	{"huge wgt", func(sp *serialize.JobSpecJSON) { sp.WGTKiB = hw.MaxBufferKiB + 1 }, "wgt_kib"},
}

// TestSubmitValidation: malformed specs are refused before admission.
func TestSubmitValidation(t *testing.T) {
	s, err := NewServer(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tc := range submitValidationCases {
		spec := testSpec(11)
		tc.mut(&spec)
		if _, err := s.Submit(spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestSubmitPersistsBeforeQueueing: a job whose queued manifest cannot be
// written is refused before any listing or worker can see it. Its manifest
// path is a directory, so the write fails; the next job completes as the
// only one listed, and the refused job never runs, so it never writes a
// checkpoint.
func TestSubmitPersistsBeforeQueueing(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "j000000.job"), 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Options{Dir: dir, PoolWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Submit(testSpec(11)); err == nil || !strings.Contains(err.Error(), "j000000") {
		t.Fatalf("submit over an unwritable manifest: %v, want an error naming j000000", err)
	}
	if ms := s.Manifests(); len(ms) != 0 {
		t.Fatalf("refused job listed: %d manifests", len(ms))
	}
	if _, err := s.Manifest("j000000"); err != ErrUnknownJob {
		t.Fatalf("refused job's manifest: %v, want ErrUnknownJob", err)
	}
	id, err := s.Submit(testSpec(12))
	if err != nil {
		t.Fatal(err)
	}
	if m := waitTerminal(t, s, id, &monotone{}); m.State != serialize.JobStateDone {
		t.Fatalf("job %s ended %s (%s), want done", id, m.State, m.Error)
	}
	if ms := s.Manifests(); len(ms) != 1 || ms[0].ID != id {
		t.Fatalf("listed %d jobs, want only %s", len(ms), id)
	}
	if _, err := os.Stat(s.checkpointPath("j000000")); !os.IsNotExist(err) {
		t.Errorf("refused job ran: its checkpoint stat reads %v", err)
	}
}

// httpDo drives the handler suite.
func httpDo(t *testing.T, method, url string, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPHandlers exercises the API surface end to end over httptest: bad
// job JSON, unknown IDs, result-before-done, cancel semantics, watch
// streaming, and concurrent submits.
func TestHTTPHandlers(t *testing.T) {
	s, err := NewServer(Options{Dir: t.TempDir(), PoolWorkers: 1, SliceRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Malformed and unknown-field bodies are 400 with an error message.
	var errBody struct {
		Error string `json:"error"`
	}
	if code := httpDo(t, "POST", ts.URL+"/jobs", "{not json", &errBody); code != 400 || errBody.Error == "" {
		t.Errorf("malformed JSON: %d %q, want 400 with error", code, errBody.Error)
	}
	if code := httpDo(t, "POST", ts.URL+"/jobs", `{"model":"mobilenetv2","samples":600,"turbo":true}`, &errBody); code != 400 || !strings.Contains(errBody.Error, "turbo") {
		t.Errorf("unknown field: %d %q, want 400 naming the field", code, errBody.Error)
	}
	if code := httpDo(t, "POST", ts.URL+"/jobs", `{"model":"mobilenetv2"}`, &errBody); code != 400 || !strings.Contains(errBody.Error, "samples") {
		t.Errorf("invalid spec: %d %q, want 400 naming samples", code, errBody.Error)
	}
	// A body over the cap is refused before it is read whole.
	huge := `{"model":"` + strings.Repeat("m", maxSpecBytes) + `","samples":600}`
	if code := httpDo(t, "POST", ts.URL+"/jobs", huge, &errBody); code != 413 || !strings.Contains(errBody.Error, "too large") {
		t.Errorf("oversized body: %d %q, want 413 with error", code, errBody.Error)
	}

	// Unknown job IDs are 404 on every per-job route.
	for _, r := range []struct{ method, path string }{
		{"GET", "/jobs/j999999"},
		{"GET", "/jobs/j999999/result"},
		{"POST", "/jobs/j999999/cancel"},
		{"GET", "/jobs/j999999/watch"},
	} {
		if code := httpDo(t, r.method, ts.URL+r.path, "", nil); code != 404 {
			t.Errorf("%s %s: %d, want 404", r.method, r.path, code)
		}
	}

	// A long job: submitted 201, result 409 while non-terminal, 200 after
	// cancel.
	long := testSpec(11)
	long.Samples = 1 << 20
	longBody, _ := json.Marshal(long)
	var created struct{ ID, State string }
	if code := httpDo(t, "POST", ts.URL+"/jobs", string(longBody), &created); code != 201 || created.ID == "" || created.State != "queued" {
		t.Fatalf("submit: %d %+v, want 201 queued", code, created)
	}
	if code := httpDo(t, "GET", ts.URL+"/jobs/"+created.ID+"/result", "", &errBody); code != 409 {
		t.Errorf("result before done: %d, want 409", code)
	}
	if code := httpDo(t, "POST", ts.URL+"/jobs/"+created.ID+"/cancel", "", nil); code != 200 {
		t.Errorf("cancel: %d, want 200", code)
	}
	waitTerminal(t, s, created.ID, &monotone{})
	var resBody struct {
		State    string `json:"state"`
		Feasible bool   `json:"feasible"`
	}
	if code := httpDo(t, "GET", ts.URL+"/jobs/"+created.ID+"/result", "", &resBody); code != 200 {
		t.Errorf("result after terminal: %d, want 200", code)
	}
	if code := httpDo(t, "POST", ts.URL+"/jobs/"+created.ID+"/cancel", "", &errBody); code != 409 {
		t.Errorf("double cancel: %d, want 409", code)
	}

	// Watch on a terminal job: exactly one ndjson line, already terminal.
	resp, err := http.Get(ts.URL + "/jobs/" + created.ID + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	watchBody, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(watchBody), "\n")
	if len(lines) != 1 {
		t.Fatalf("watch on terminal job: %d lines, want 1", len(lines))
	}
	var watched serialize.JobManifestJSON
	if err := json.Unmarshal([]byte(lines[0]), &watched); err != nil {
		t.Fatal(err)
	}
	if !terminal(watched.State) {
		t.Errorf("watch stream ended on non-terminal state %s", watched.State)
	}

	// Concurrent submits: unique IDs, all admitted, all listed.
	const n = 8
	idCh := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			spec := testSpec(seed)
			spec.Samples = 1 << 20 // keep them queued; we only test admission
			body, _ := json.Marshal(spec)
			var out struct{ ID string }
			if code := httpDo(t, "POST", ts.URL+"/jobs", string(body), &out); code == 201 {
				idCh <- out.ID
			}
		}(int64(100 + i))
	}
	wg.Wait()
	close(idCh)
	seen := map[string]bool{}
	for id := range idCh {
		if seen[id] {
			t.Fatalf("duplicate job ID %s issued concurrently", id)
		}
		seen[id] = true
	}
	if len(seen) != n {
		t.Fatalf("%d of %d concurrent submits admitted", len(seen), n)
	}
	var listed []serialize.JobManifestJSON
	if code := httpDo(t, "GET", ts.URL+"/jobs", "", &listed); code != 200 || len(listed) < n {
		t.Errorf("list: %d entries (code %d), want >= %d", len(listed), code, n)
	}
	for id := range seen {
		if err := s.Cancel(id); err != nil && err != ErrJobTerminal {
			_ = err // racing a pool pickup is fine; terminal-or-cancelled either way
		}
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			if err.Error() == "EOF" {
				return sb.String(), nil
			}
			return sb.String(), err
		}
	}
}

// TestServeDaemonProcess is not a test: it is the daemon main for the
// SIGKILL fault-injection test, entered when the test binary is re-executed
// with COCCO_SERVE_TEST_DAEMON set. It serves the HTTP API until killed.
func TestServeDaemonProcess(t *testing.T) {
	if os.Getenv("COCCO_SERVE_TEST_DAEMON") == "" {
		t.Skip("daemon-process helper; set COCCO_SERVE_TEST_DAEMON to run")
	}
	s, err := NewServer(Options{
		Dir:         os.Getenv("COCCO_SERVE_TEST_DIR"),
		PoolWorkers: 1,
		SliceRounds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrFile := os.Getenv("COCCO_SERVE_TEST_ADDRFILE")
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte("http://"+ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		t.Fatal(err)
	}
	t.Fatal(http.Serve(ln, s.Handler()))
}

// spawnDaemon re-executes this test binary as a real coccod-shaped daemon
// process over dir and returns its base URL.
func spawnDaemon(t *testing.T, dir string, i int) (string, *exec.Cmd) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(dir, fmt.Sprintf("daemon%d.addr", i))
	cmd := exec.Command(exe, "-test.run", "^TestServeDaemonProcess$")
	cmd.Env = append(os.Environ(),
		"COCCO_SERVE_TEST_DAEMON=1",
		"COCCO_SERVE_TEST_DIR="+dir,
		"COCCO_SERVE_TEST_ADDRFILE="+addrFile,
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
			t.Fatalf("daemon %d never published its address", i)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func httpManifest(t *testing.T, base, id string) *serialize.JobManifestJSON {
	t.Helper()
	var m serialize.JobManifestJSON
	if code := httpDo(t, "GET", base+"/jobs/"+id, "", &m); code != 200 {
		t.Fatalf("GET %s/jobs/%s: %d", base, id, code)
	}
	return &m
}

// TestKillAndRestartDaemon is the kill-and-restart pin, with a real
// SIGKILL: submit over HTTP, poll progress (monotone within an incarnation),
// SIGKILL the daemon mid-job, restart it over the same directory, and the
// resumed job's result and checkpoint bytes must be identical to a direct
// run with the same seed. The daemon's slices are one round long, so every
// checkpoint it can restart from is a slice boundary of the direct run.
func TestKillAndRestartDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemon processes")
	}
	dir := t.TempDir()
	base, victim := spawnDaemon(t, dir, 0)

	body, _ := json.Marshal(testSpec(11))
	var created struct{ ID string }
	if code := httpDo(t, "POST", base+"/jobs", string(body), &created); code != 201 {
		t.Fatalf("submit: %d", code)
	}
	id := created.ID

	// Poll until at least two slices are durable, then SIGKILL mid-job.
	w := &monotone{}
	deadline := time.Now().Add(120 * time.Second)
	finishedEarly := false
	for {
		m := httpManifest(t, base, id)
		w.check(t, m)
		if terminal(m.State) {
			finishedEarly = true
			break
		}
		if m.Slices >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no durable slices before the kill window closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !finishedEarly {
		victim.Process.Kill()
		victim.Wait()
		base, _ = spawnDaemon(t, dir, 1)
		// A SIGKILL loses the in-memory per-round progress past the last
		// durable slice; durable progress itself never regresses, but the
		// polled view may, so the watcher restarts with the recovered state.
		w = &monotone{}
	}

	deadline = time.Now().Add(120 * time.Second)
	var final *serialize.JobManifestJSON
	for {
		final = httpManifest(t, base, id)
		w.check(t, final)
		if terminal(final.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job never finished (state %s)", final.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.State != serialize.JobStateDone || final.Result == nil {
		t.Fatalf("resumed job: state %s, result %v, error %q", final.State, final.Result != nil, final.Error)
	}

	var res struct {
		Result *serialize.GenomeJSON `json:"result"`
	}
	if code := httpDo(t, "GET", base+"/jobs/"+id+"/result", "", &res); code != 200 || res.Result == nil {
		t.Fatalf("result fetch: %d, result %v", code, res.Result != nil)
	}

	wantResult, wantCkpt := directRun(t, testSpec(11), 1)
	if !reflect.DeepEqual(wantResult, res.Result) {
		t.Error("killed-and-restarted result differs from uninterrupted direct run")
	}
	gotCkpt, err := os.ReadFile(filepath.Join(dir, id+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantCkpt, gotCkpt) {
		t.Errorf("killed-and-restarted checkpoint differs from direct run (%d vs %d bytes)", len(gotCkpt), len(wantCkpt))
	}
}
