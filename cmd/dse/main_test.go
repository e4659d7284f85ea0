package main

import (
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
