package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cocco/internal/hw"
)

// TestParseKBAxis: a capacity axis is checked value by value, and a range
// for its length, before anything is expanded or multiplied by KiB.
func TestParseKBAxis(t *testing.T) {
	got, err := parseKBAxis("128:2048:64")
	if err != nil || len(got) != 31 || got[0] != 128*hw.KiB || got[30] != 2048*hw.KiB {
		t.Errorf("paper global range: %d values, %v", len(got), err)
	}
	got, err = parseKBAxis("256, 512,1024")
	if err != nil || len(got) != 3 || got[1] != 512*hw.KiB {
		t.Errorf("comma list: %v, %v", got, err)
	}
	for _, c := range []struct{ in, want string }{
		{"1:8000000000:1", "KB value must be in [1, 1073741824], got 8000000000"},
		{"1:1000000:1", "at most 4096 candidates, got 1000000"},
		{"1:4097:1", "at most 4096 candidates, got 4097"},
		{"9007199254740993", "KB value must be in [1, 1073741824]"},
		{"256,-5", "KB value must be in [1, 1073741824], got -5"},
		{"0:1024:64", "KB value must be in [1, 1073741824], got 0"},
		{"128:2048:0", "KB value must be in [1, 1073741824], got 0"},
		{"2048:128:64", "empty range"},
		{"128:2048", "range must be min:max:step"},
		{"128:x:64", `bad KB value "x"`},
	} {
		if _, err := parseKBAxis(c.in); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: got %v, want an error containing %q", c.in, err, c.want)
		}
	}
	if got, err := parseKBAxis("1:4096:1"); err != nil || len(got) != hw.MaxRangeCandidates {
		t.Errorf("range of MaxRangeCandidates values: %d, %v", len(got), err)
	}
}

// TestErrorLineHasOnePrefix: every error dse prints starts with exactly one
// "dse: ", whether it comes from the flags, from package dse's grid or
// sweep, or from another package beneath them.
func TestErrorLineHasOnePrefix(t *testing.T) {
	small := []string{"-models", "mobilenetv2", "-glb", "256", "-wgt", "288", "-samples", "40", "-population", "4"}
	dir := t.TempDir()
	if err := run(append(small, "-checkpoint-dir", dir), io.Discard); err != nil {
		t.Fatal(err)
	}
	caches, _ := filepath.Glob(filepath.Join(dir, "*.cache"))
	if len(caches) != 1 {
		t.Fatalf("sweep left %d cost-cache snapshots, want 1", len(caches))
	}
	if err := os.WriteFile(caches[0], []byte("not a cost cache"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-glb", "0"}, "dse: -glb: KB value must be in"},
		{[]string{"-models", "no-such-model"}, "dse: grid model: "},
		{[]string{"-glb", "256,256"}, "dse: grid repeats global capacity"},
		{[]string{"-metric", "latency"}, "dse: eval: unknown metric"},
		{append(small, "-alpha", "-1"), "dse: config mobilenetv2_"},
		{append(small, "-checkpoint-dir", dir), "dse: serialize: cost cache " + caches[0]},
	} {
		err := run(c.args, io.Discard)
		if err == nil {
			t.Errorf("%q: ran, want an error", c.args)
			continue
		}
		if line := errorLine(err); !strings.HasPrefix(line, c.want) || strings.HasPrefix(line, "dse: dse: ") {
			t.Errorf("%q: prints %q, want one \"dse: \" and %q", c.args, line, c.want)
		}
	}
}
