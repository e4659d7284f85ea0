package models

import (
	"strconv"

	"cocco/internal/graph"
)

// VGG16 builds the 16-layer plain network of Simonyan & Zisserman with a
// 3×224×224 input: thirteen 3×3 convolutions in five pooled stages followed
// by three FC layers (lowered to 1×1 convolutions).
func VGG16() *graph.Graph {
	b := graph.NewBuilder("vgg16")
	x := b.Input("input", 3, 224, 224)
	stage := func(prefix string, convs int, c int) {
		for i := 1; i <= convs; i++ {
			x = b.Conv(prefix+"_conv"+strconv.Itoa(i), x, c, 3, 1)
		}
		x = b.Pool(prefix+"_pool", x, 2, 2)
	}
	stage("s1", 2, 64)
	stage("s2", 2, 128)
	stage("s3", 3, 256)
	stage("s4", 3, 512)
	stage("s5", 3, 512)
	x = b.FC("fc6", x, 4096)
	x = b.FC("fc7", x, 4096)
	b.FC("fc8", x, 1000)
	return b.MustFinalize()
}

// ResNet50 builds the 50-layer residual network (bottleneck blocks
// [3,4,6,3]).
func ResNet50() *graph.Graph { return resnet("resnet50", []int{3, 4, 6, 3}) }

// ResNet152 builds the 152-layer residual network (bottleneck blocks
// [3,8,36,3]).
func ResNet152() *graph.Graph { return resnet("resnet152", []int{3, 8, 36, 3}) }

func resnet(name string, blocks []int) *graph.Graph {
	b := graph.NewBuilder(name)
	x := b.Input("input", 3, 224, 224)
	x = b.Conv("stem_conv", x, 64, 7, 2)
	x = b.Pool("stem_pool", x, 3, 2)

	mid := []int{64, 128, 256, 512}
	for stage, n := range blocks {
		m := mid[stage]
		out := m * 4
		for blk := 0; blk < n; blk++ {
			stride := 1
			if blk == 0 && stage > 0 {
				stride = 2
			}
			prefix := "s" + strconv.Itoa(stage+1) + "_b" + strconv.Itoa(blk+1)
			identity := x
			y := b.Conv(prefix+"_conv1", x, m, 1, 1)
			y = b.Conv(prefix+"_conv2", y, m, 3, stride)
			y = b.Conv(prefix+"_conv3", y, out, 1, 1)
			if blk == 0 {
				// Projection shortcut matches channels (and stride).
				identity = b.Conv(prefix+"_down", x, out, 1, stride)
			}
			x = b.Eltwise(prefix+"_add", y, identity)
		}
	}
	x = b.GlobalPool("avgpool", x)
	b.FC("fc", x, 1000)
	return b.MustFinalize()
}

// inceptionCfg holds one GoogleNet inception module's branch widths:
// 1×1; 3×3 reduce → 3×3; 5×5 reduce → 5×5; pool-proj.
type inceptionCfg struct {
	name                        string
	c1, c3r, c3, c5r, c5, cPool int
}

// GoogleNet builds GoogLeNet (Inception v1): stem, nine inception modules
// in three pooled groups, global pool, and the classifier.
func GoogleNet() *graph.Graph {
	b := graph.NewBuilder("googlenet")
	x := b.Input("input", 3, 224, 224)
	x = b.Conv("stem_conv1", x, 64, 7, 2)
	x = b.Pool("stem_pool1", x, 3, 2)
	x = b.Conv("stem_conv2a", x, 64, 1, 1)
	x = b.Conv("stem_conv2b", x, 192, 3, 1)
	x = b.Pool("stem_pool2", x, 3, 2)

	inception := func(cfg inceptionCfg, from int) int {
		b1 := b.Conv(cfg.name+"_1x1", from, cfg.c1, 1, 1)
		b2 := b.Conv(cfg.name+"_3x3r", from, cfg.c3r, 1, 1)
		b2 = b.Conv(cfg.name+"_3x3", b2, cfg.c3, 3, 1)
		b3 := b.Conv(cfg.name+"_5x5r", from, cfg.c5r, 1, 1)
		b3 = b.Conv(cfg.name+"_5x5", b3, cfg.c5, 5, 1)
		b4 := b.Pool(cfg.name+"_pool", from, 3, 1)
		b4 = b.Conv(cfg.name+"_poolproj", b4, cfg.cPool, 1, 1)
		return b.Concat(cfg.name+"_concat", b1, b2, b3, b4)
	}

	x = inception(inceptionCfg{"inc3a", 64, 96, 128, 16, 32, 32}, x)
	x = inception(inceptionCfg{"inc3b", 128, 128, 192, 32, 96, 64}, x)
	x = b.Pool("pool3", x, 3, 2)
	x = inception(inceptionCfg{"inc4a", 192, 96, 208, 16, 48, 64}, x)
	x = inception(inceptionCfg{"inc4b", 160, 112, 224, 24, 64, 64}, x)
	x = inception(inceptionCfg{"inc4c", 128, 128, 256, 24, 64, 64}, x)
	x = inception(inceptionCfg{"inc4d", 112, 144, 288, 32, 64, 64}, x)
	x = inception(inceptionCfg{"inc4e", 256, 160, 320, 32, 128, 128}, x)
	x = b.Pool("pool4", x, 3, 2)
	x = inception(inceptionCfg{"inc5a", 256, 160, 320, 32, 128, 128}, x)
	x = inception(inceptionCfg{"inc5b", 384, 192, 384, 48, 128, 128}, x)
	x = b.GlobalPool("avgpool", x)
	b.FC("fc", x, 1000)
	return b.MustFinalize()
}
