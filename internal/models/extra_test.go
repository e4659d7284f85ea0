package models

import (
	"testing"

	"cocco/internal/graph"
)

func TestMobileNetV2Structure(t *testing.T) {
	g := MustBuild("mobilenetv2")
	// ≈ 3.5 M parameters.
	if w := g.TotalWeightBytes(); w < 3_000_000 || w > 4_200_000 {
		t.Errorf("mobilenetv2 weights = %d", w)
	}
	// Inverted residuals: depth-wise layers present, residual adds present.
	dw, adds := 0, 0
	for _, n := range g.Nodes() {
		switch n.Kind {
		case graph.OpDWConv:
			dw++
		case graph.OpEltwise:
			adds++
		}
	}
	if dw != 17 {
		t.Errorf("depthwise layers = %d, want 17", dw)
	}
	if adds != 10 {
		t.Errorf("residual adds = %d, want 10", adds)
	}
	// Final spatial size 7×7 before pooling.
	head := -1
	for _, n := range g.Nodes() {
		if n.Name == "head_conv" {
			head = n.ID
		}
	}
	if head < 0 || g.Node(head).OutH != 7 {
		t.Errorf("head spatial = %d, want 7", g.Node(head).OutH)
	}
}

func TestDenseNet121Structure(t *testing.T) {
	g := MustBuild("densenet121")
	// 6+12+24+16 = 58 dense layers, each with a concat input except the
	// first of each block.
	convs3 := 0
	maxFanIn := 0
	for _, n := range g.Nodes() {
		if n.Kind == graph.OpConv && n.KernelH == 3 {
			convs3++
		}
		if n.Kind == graph.OpConcat && len(g.PredIDs(n.ID)) > maxFanIn {
			maxFanIn = len(g.PredIDs(n.ID))
		}
	}
	if convs3 != 58 {
		t.Errorf("3x3 dense layers = %d, want 58", convs3)
	}
	// The last concat of block 3 gathers 24 features + the block input.
	if maxFanIn != 25 {
		t.Errorf("max concat fan-in = %d, want 25", maxFanIn)
	}
	// ≈ 8 M parameters.
	if w := g.TotalWeightBytes(); w < 6_500_000 || w > 9_500_000 {
		t.Errorf("densenet121 weights = %d", w)
	}
}

func TestUNetSkipConnections(t *testing.T) {
	g := MustBuild("unet")
	// Four decoder concats joining encoder features across the bottleneck.
	concats := 0
	for _, n := range g.Nodes() {
		if n.Kind == graph.OpConcat {
			concats++
			if len(g.PredIDs(n.ID)) != 2 {
				t.Errorf("%s fan-in = %d", n.Name, len(g.PredIDs(n.ID)))
			}
		}
	}
	if concats != 4 {
		t.Errorf("skip concats = %d, want 4", concats)
	}
	// Encoder feature enc1 must have a consumer far away (the long skip).
	var e1 int
	for _, n := range g.Nodes() {
		if n.Name == "enc1_conv2" {
			e1 = n.ID
		}
	}
	maxDist := 0
	for _, c := range g.SuccIDs(e1) {
		if d := int(c) - e1; d > maxDist {
			maxDist = d
		}
	}
	if maxDist < 20 {
		t.Errorf("longest skip spans only %d nodes", maxDist)
	}
	// Output is a full-resolution 2-channel map.
	out := g.Outputs()
	if len(out) != 1 {
		t.Fatalf("outputs = %v", out)
	}
	on := g.Node(out[0])
	if on.OutH != 256 || on.OutC != 2 {
		t.Errorf("output shape %dx%dx%d", on.OutH, on.OutW, on.OutC)
	}
}

func TestExtraModelsRegistered(t *testing.T) {
	names := Names()
	want := map[string]bool{"mobilenetv2": true, "densenet121": true, "unet": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing registrations: %v", want)
	}
}
