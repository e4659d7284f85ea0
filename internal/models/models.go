// Package models is the reproduction's "NN-parser" stand-in: it constructs
// the computation graphs of every network evaluated in the paper (§5.1.1) —
// plain (VGG16), multi-branch (ResNet50/152, GoogleNet, Transformer, GPT),
// and irregular (RandWire-A/B, NasNet).
//
// Following the paper, FC layers are lowered to 1×1 convolutions, and
// pooling / element-wise layers are analyzed as weight-less depth-wise
// convolutions. RandWire graphs are generated with a seeded Watts–Strogatz
// process so every run sees the same topology.
package models

import (
	"fmt"
	"sort"

	"cocco/internal/graph"
)

// BuildFunc constructs a model graph.
type BuildFunc func() *graph.Graph

var registry = map[string]BuildFunc{
	"vgg16":       VGG16,
	"resnet50":    ResNet50,
	"resnet152":   ResNet152,
	"googlenet":   GoogleNet,
	"transformer": Transformer,
	"gpt":         GPT,
	"nasnet":      NasNet,
	"randwire-a":  RandWireA,
	"randwire-b":  RandWireB,
}

// Names returns the registered model names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CheckName returns nil if name is a registered model, and otherwise the
// error Build returns for it, without building a graph.
func CheckName(name string) error {
	if _, ok := registry[name]; !ok {
		return fmt.Errorf("models: unknown model %q (have %v)", name, Names())
	}
	return nil
}

// Build constructs the named model or returns an error listing valid names.
func Build(name string) (*graph.Graph, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	return registry[name](), nil
}

// MustBuild is Build that panics on unknown names; for tests and examples.
func MustBuild(name string) *graph.Graph {
	g, err := Build(name)
	if err != nil {
		panic(err)
	}
	return g
}

// PaperModels returns the eight evaluation models in the paper's Figure 11
// order.
func PaperModels() []string {
	return []string{"vgg16", "resnet50", "resnet152", "googlenet",
		"transformer", "gpt", "randwire-a", "randwire-b"}
}

// CoExplorationModels returns the four models used in Tables 1–3 and
// Figures 13–14. The paper uses RandWire-A as "RandWire" there.
func CoExplorationModels() []string {
	return []string{"resnet50", "googlenet", "randwire-a", "nasnet"}
}
