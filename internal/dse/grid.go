package dse

import (
	"fmt"
	"slices"

	"cocco/internal/hw"
	"cocco/internal/models"
	"cocco/internal/tiling"
)

// Grid declares the hardware-design sweep: the cartesian product of its
// axes, per model. Empty axes default to a single neutral value (Cores and
// Batch default to 1; Kinds defaults to the separate design), so a minimal
// grid is just Models × GlobalBytes (× WeightBytes for the separate kind).
type Grid struct {
	// Models are zoo model names (models.Build).
	Models []string
	// Kinds are the buffer designs to sweep.
	Kinds []hw.BufferKind
	// GlobalBytes are the global-buffer (or shared, for SharedBuffer)
	// capacity candidates in bytes.
	GlobalBytes []int64
	// WeightBytes are the weight-buffer capacity candidates (separate
	// design only; ignored for SharedBuffer points).
	WeightBytes []int64
	// Cores and Batch are the platform axes.
	Cores []int
	Batch []int
	// Tiling is the tiling config shared by every grid point; the zero
	// value means tiling.DefaultConfig().
	Tiling tiling.Config
}

// Config is one grid point: a model and the full hardware configuration its
// search runs under. Index is the point's position in grid order.
type Config struct {
	Index  int
	Model  string
	Mem    hw.MemConfig
	Cores  int
	Batch  int
	Tiling tiling.Config
}

// ID is the config's stable, filesystem-safe identifier; per-config
// checkpoint and outcome files are named by it, and resumes verify it.
func (c Config) ID() string {
	return fmt.Sprintf("%s_%s_g%d_w%d_c%d_b%d_t%s",
		c.Model, c.Mem.Kind, c.Mem.GlobalBytes, c.Mem.WeightBytes, c.Cores, c.Batch, c.Tiling)
}

func (c Config) String() string {
	return fmt.Sprintf("%s %v cores=%d batch=%d", c.Model, c.Mem, c.Cores, c.Batch)
}

// withDefaults fills the neutral axis values.
func (g Grid) withDefaults() Grid {
	if len(g.Kinds) == 0 {
		g.Kinds = []hw.BufferKind{hw.SeparateBuffer}
	}
	if len(g.Cores) == 0 {
		g.Cores = []int{1}
	}
	if len(g.Batch) == 0 {
		g.Batch = []int{1}
	}
	if g.Tiling == (tiling.Config{}) {
		g.Tiling = tiling.DefaultConfig()
	}
	return g
}

// Configs expands the grid into its points, in a fixed deterministic order
// (model-major, then kind, capacities, cores, batch), validating every
// memory configuration, model name and platform value up front, and
// rejecting grids whose points would share a Config.ID (a repeated model or
// axis value), so a sweep never fails halfway through on a malformed point
// and no two points share checkpoint files.
func (g Grid) Configs() ([]Config, error) {
	g = g.withDefaults()
	if len(g.Models) == 0 {
		return nil, fmt.Errorf("dse: grid has no models")
	}
	if len(g.GlobalBytes) == 0 {
		return nil, fmt.Errorf("dse: grid has no global-buffer capacities")
	}
	for _, m := range g.Models {
		if err := models.CheckName(m); err != nil {
			return nil, fmt.Errorf("dse: grid model: %w", err)
		}
	}
	for _, c := range g.Cores {
		if c < 1 {
			return nil, fmt.Errorf("dse: grid cores must be >= 1, got %d", c)
		}
	}
	for _, b := range g.Batch {
		if b < 1 {
			return nil, fmt.Errorf("dse: grid batch must be >= 1, got %d", b)
		}
	}
	repeats := []error{
		noRepeats("model", g.Models), noRepeats("buffer kind", g.Kinds),
		noRepeats("global capacity", g.GlobalBytes),
		noRepeats("cores", g.Cores), noRepeats("batch", g.Batch),
	}
	if slices.Contains(g.Kinds, hw.SeparateBuffer) {
		// Weight capacities reach only separate-buffer points' IDs.
		repeats = append(repeats, noRepeats("weight capacity", g.WeightBytes))
	}
	for _, err := range repeats {
		if err != nil {
			return nil, err
		}
	}
	var out []Config
	for _, model := range g.Models {
		for _, kind := range g.Kinds {
			wgts := g.WeightBytes
			if kind == hw.SharedBuffer {
				wgts = []int64{0}
			} else if len(wgts) == 0 {
				return nil, fmt.Errorf("dse: separate-buffer grid needs weight capacities")
			}
			for _, glb := range g.GlobalBytes {
				for _, wgt := range wgts {
					mem := hw.MemConfig{Kind: kind, GlobalBytes: glb, WeightBytes: wgt}
					if err := mem.Validate(); err != nil {
						return nil, fmt.Errorf("dse: grid point: %w", err)
					}
					for _, cores := range g.Cores {
						for _, batch := range g.Batch {
							out = append(out, Config{
								Index:  len(out),
								Model:  model,
								Mem:    mem,
								Cores:  cores,
								Batch:  batch,
								Tiling: g.Tiling,
							})
						}
					}
				}
			}
		}
	}
	return out, nil
}

// noRepeats rejects an axis holding a value twice: the grid points it
// yields would share a Config.ID, and with it their checkpoint and outcome
// files.
func noRepeats[T comparable](axis string, xs []T) error {
	for i, x := range xs {
		if slices.Contains(xs[:i], x) {
			return fmt.Errorf("dse: grid repeats %s %v", axis, x)
		}
	}
	return nil
}
