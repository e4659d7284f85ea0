package main

import (
	"flag"
	"reflect"
	"testing"

	"cocco/internal/serialize"
	"cocco/internal/serve"
)

// parseSpec parses args with only the search-shaping flags registered and
// returns the spec they fill.
func parseSpec(t *testing.T, args ...string) (serialize.JobSpecJSON, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("cocco", flag.ContinueOnError)
	spec := specFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return *spec, fs
}

// TestDefaultsAreAdmitted: cocco's flag defaults, with and without memory
// co-exploration, are a fixed point of coccod's admission, so a CLI run
// and a job spec that leaves a field out build the same search.
func TestDefaultsAreAdmitted(t *testing.T) {
	for _, args := range [][]string{nil, {"-search"}} {
		spec, _ := parseSpec(t, args...)
		norm, err := serve.NormalizeSpec(spec)
		if err != nil {
			t.Errorf("%v: %v", args, err)
		} else if !reflect.DeepEqual(norm, spec) {
			t.Errorf("%v: NormalizeSpec changed the defaults:\n got  %+v\n want %+v", args, norm, spec)
		}
	}
}

// TestFlagsFillSpec: one non-default value per search-shaping flag lands in
// its spec field and nowhere else, and every spec field has its flag.
func TestFlagsFillSpec(t *testing.T) {
	base, fs := parseSpec(t)
	cases := []struct {
		flag, value string
		set         func(*serialize.JobSpecJSON)
	}{
		{"model", "googlenet", func(s *serialize.JobSpecJSON) { s.Model = "googlenet" }},
		{"tiling", "4x4", func(s *serialize.JobSpecJSON) { s.Tiling = "4x4" }},
		{"cores", "4", func(s *serialize.JobSpecJSON) { s.Cores = 4 }},
		{"batch", "8", func(s *serialize.JobSpecJSON) { s.Batch = 8 }},
		{"metric", "ema", func(s *serialize.JobSpecJSON) { s.Metric = "ema" }},
		{"alpha", "0.01", func(s *serialize.JobSpecJSON) { s.Alpha = 0.01 }},
		{"kind", "shared", func(s *serialize.JobSpecJSON) { s.Kind = "shared" }},
		{"glb", "2048", func(s *serialize.JobSpecJSON) { s.GLBKiB = 2048 }},
		{"wgt", "576", func(s *serialize.JobSpecJSON) { s.WGTKiB = 576 }},
		{"search", "true", func(s *serialize.JobSpecJSON) { s.MemSearch = true }},
		{"seed", "11", func(s *serialize.JobSpecJSON) { s.Seed = 11 }},
		{"population", "20", func(s *serialize.JobSpecJSON) { s.Population = 20 }},
		{"samples", "600", func(s *serialize.JobSpecJSON) { s.Samples = 600 }},
		{"islands", "2", func(s *serialize.JobSpecJSON) { s.Islands = 2 }},
		{"migrate-every", "2", func(s *serialize.JobSpecJSON) { s.MigrateEvery = 2 }},
		{"migrants", "3", func(s *serialize.JobSpecJSON) { s.Migrants = 3 }},
		{"scouts", "sa, greedy", func(s *serialize.JobSpecJSON) { s.Scouts = []string{"sa", "greedy"} }},
	}
	if n := reflect.TypeOf(base).NumField(); len(cases) != n {
		t.Fatalf("%d cases for %d spec fields", len(cases), n)
	}
	seen := map[string]bool{}
	for _, tc := range cases {
		seen[tc.flag] = true
		want := base
		tc.set(&want)
		if reflect.DeepEqual(want, base) {
			t.Errorf("-%s %s: value is the default", tc.flag, tc.value)
		}
		if got, _ := parseSpec(t, "-"+tc.flag+"="+tc.value); !reflect.DeepEqual(got, want) {
			t.Errorf("-%s %s:\n got  %+v\n want %+v", tc.flag, tc.value, got, want)
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !seen[f.Name] {
			t.Errorf("flag -%s has no case", f.Name)
		}
	})
}
