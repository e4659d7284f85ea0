package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"cocco/internal/search"
	"cocco/internal/serialize"
)

// FuzzSpecAdmission drives fuzzed bytes through a job's front door: decoded
// as POST /jobs decodes a body, then NormalizeSpec, BuildOptions,
// NewEvaluator and one round of search.Run, with the admitted population
// and sample budget clamped to fuzz size. Each step must return an error or
// finish; none may panic.
func FuzzSpecAdmission(f *testing.F) {
	seeds := []serialize.JobSpecJSON{testSpec(11)}
	for _, tc := range submitValidationCases {
		spec := testSpec(11)
		tc.mut(&spec)
		seeds = append(seeds, spec)
	}
	for _, spec := range seeds {
		data, err := json.Marshal(spec)
		if err != nil {
			// JSON has no NaN or ±Inf: seed the number text a client would send.
			alpha := spec.Alpha
			spec.Alpha = 1
			if data, err = json.Marshal(spec); err != nil {
				f.Fatal(err)
			}
			data = bytes.Replace(data, []byte(`"alpha":1`), fmt.Appendf(nil, `"alpha":%g`, alpha), 1)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(io.LimitReader(bytes.NewReader(data), maxSpecBytes))
		if err != nil {
			return
		}
		if spec, err = NormalizeSpec(spec); err != nil {
			return
		}
		opt, err := BuildOptions(spec)
		if err != nil {
			return
		}
		ev, err := NewEvaluator(spec)
		if err != nil {
			return
		}
		opt.Core.Population = min(opt.Core.Population, 4)
		opt.Core.MaxSamples = min(opt.Core.MaxSamples, 8)
		opt.Core.Workers = 1
		opt.Checkpoint, opt.MaxRounds = filepath.Join(t.TempDir(), "fuzz.ckpt"), 1
		search.Run(ev, opt)
	})
}
