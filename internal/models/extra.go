package models

import (
	"strconv"

	"cocco/internal/graph"
)

// The models in this file go beyond the paper's evaluation set: they cover
// graph-shape classes the optional/extension discussion points at
// (lightweight inverted residuals, dense connectivity, and encoder–decoder
// skips) and are available to every tool and benchmark through the registry.

func init() {
	registry["mobilenetv2"] = MobileNetV2
	registry["densenet121"] = DenseNet121
	registry["unet"] = UNet
}

// MobileNetV2 builds Sandler et al.'s inverted-residual network: a stem,
// seven bottleneck stages (expansion 1×1 → depth-wise 3×3 → projection 1×1,
// with residual adds on stride-1 blocks of equal width), and the 1280-wide
// head.
func MobileNetV2() *graph.Graph {
	b := graph.NewBuilder("mobilenetv2")
	x := b.Input("input", 3, 224, 224)
	x = b.Conv("stem", x, 32, 3, 2)

	type stage struct{ t, c, n, s int } // expansion, channels, repeats, stride
	stages := []stage{
		{1, 16, 1, 1},
		{6, 24, 2, 2},
		{6, 32, 3, 2},
		{6, 64, 4, 2},
		{6, 96, 3, 1},
		{6, 160, 3, 2},
		{6, 320, 1, 1},
	}
	inC := 32
	for si, st := range stages {
		for i := 0; i < st.n; i++ {
			stride := 1
			if i == 0 {
				stride = st.s
			}
			p := "b" + strconv.Itoa(si+1) + "_" + strconv.Itoa(i+1)
			identity := x
			y := x
			if st.t != 1 {
				y = b.Conv(p+"_expand", y, inC*st.t, 1, 1)
			}
			y = b.DWConv(p+"_dw", y, 3, stride)
			y = b.Conv(p+"_project", y, st.c, 1, 1)
			if stride == 1 && inC == st.c {
				y = b.Eltwise(p+"_add", y, identity)
			}
			x = y
			inC = st.c
		}
	}
	x = b.Conv("head_conv", x, 1280, 1, 1)
	x = b.GlobalPool("avgpool", x)
	b.FC("fc", x, 1000)
	return b.MustFinalize()
}

// DenseNet121 builds Huang et al.'s densely connected network: four dense
// blocks of [6, 12, 24, 16] layers with growth rate 32, where every layer's
// input is the concatenation of all earlier features in the block, joined by
// 1×1+pool transition layers.
func DenseNet121() *graph.Graph {
	b := graph.NewBuilder("densenet121")
	x := b.Input("input", 3, 224, 224)
	x = b.Conv("stem_conv", x, 64, 7, 2)
	x = b.Pool("stem_pool", x, 3, 2)

	const growth = 32
	blocks := []int{6, 12, 24, 16}
	channels := 64
	for bi, layers := range blocks {
		block := strconv.Itoa(bi + 1)
		features := []int{x}
		for li := 0; li < layers; li++ {
			p := "d" + block + "_l" + strconv.Itoa(li+1)
			in := features[0]
			if len(features) > 1 {
				in = b.Concat(p+"_cat", features...)
			}
			// Bottleneck: 1×1 to 4·growth, then 3×3 to growth.
			y := b.Conv(p+"_1x1", in, 4*growth, 1, 1)
			y = b.Conv(p+"_3x3", y, growth, 3, 1)
			features = append(features, y)
			channels += growth
		}
		x = b.Concat("d"+block+"_out", features...)
		if bi < len(blocks)-1 {
			// Transition: halve channels and spatial size.
			channels /= 2
			x = b.Conv("t"+block+"_conv", x, channels, 1, 1)
			x = b.Pool("t"+block+"_pool", x, 2, 2)
		}
	}
	x = b.GlobalPool("avgpool", x)
	b.FC("fc", x, 1000)
	return b.MustFinalize()
}

// UNet builds Ronneberger et al.'s encoder–decoder segmentation network on a
// 256×256 input: four down-sampling stages, a bottleneck, and four
// up-sampling stages whose inputs concatenate the symmetric encoder features
// (long skip connections — the graph-shape class where greedy fusion
// struggles most).
func UNet() *graph.Graph {
	b := graph.NewBuilder("unet")
	x := b.Input("input", 3, 256, 256)

	double := func(p string, from, c int) int {
		y := b.Conv(p+"_conv1", from, c, 3, 1)
		return b.Conv(p+"_conv2", y, c, 3, 1)
	}

	// Encoder.
	e1 := double("enc1", x, 64)
	p1 := b.Pool("pool1", e1, 2, 2)
	e2 := double("enc2", p1, 128)
	p2 := b.Pool("pool2", e2, 2, 2)
	e3 := double("enc3", p2, 256)
	p3 := b.Pool("pool3", e3, 2, 2)
	e4 := double("enc4", p3, 512)
	p4 := b.Pool("pool4", e4, 2, 2)

	mid := double("bottleneck", p4, 1024)

	// Decoder. Up-sampling is modeled as a 1×1 convolution producing the
	// doubled spatial map (a transposed convolution's cost twin), built with
	// Custom since the builder's Conv derives shrinking shapes only.
	up := func(p string, from, c, outH, outW int) int {
		_, _, _, ok := b.OutShape(from)
		if !ok {
			return -1
		}
		cIn, _, _, _ := b.OutShape(from)
		return b.Custom(p+"_up", graph.OpConv, 1, 1, cIn, c, outH, outW, from)
	}

	d4 := up("dec4", mid, 512, 32, 32)
	d4 = b.Concat("dec4_cat", d4, e4)
	d4 = double("dec4", d4, 512)
	d3 := up("dec3", d4, 256, 64, 64)
	d3 = b.Concat("dec3_cat", d3, e3)
	d3 = double("dec3", d3, 256)
	d2 := up("dec2", d3, 128, 128, 128)
	d2 = b.Concat("dec2_cat", d2, e2)
	d2 = double("dec2", d2, 128)
	d1 := up("dec1", d2, 64, 256, 256)
	d1 = b.Concat("dec1_cat", d1, e1)
	d1 = double("dec1", d1, 64)

	b.Conv("head", d1, 2, 1, 1)
	return b.MustFinalize()
}
