package models

import (
	"strconv"

	"cocco/internal/graph"
)

// attentionCfg parameterizes a Transformer-family stack.
type attentionCfg struct {
	name    string
	layers  int
	seqLen  int
	dModel  int
	dFF     int
	decoder bool // decoder-only (GPT) stacks skip nothing here but keep the flag for clarity
}

// Transformer builds the base encoder of Vaswani et al.: 6 layers,
// d_model=512, d_ff=2048, over a 512-token sequence. Every projection is a
// matmul lowered to a 1×1 convolution along the sequence dimension; the
// attention score and context products are two-input matmuls.
func Transformer() *graph.Graph {
	return attentionStack(attentionCfg{
		name: "transformer", layers: 6, seqLen: 512, dModel: 512, dFF: 2048,
	})
}

// GPT builds the GPT-1 decoder stack: 12 layers, d_model=768, d_ff=3072,
// over a 512-token sequence.
func GPT() *graph.Graph {
	return attentionStack(attentionCfg{
		name: "gpt", layers: 12, seqLen: 512, dModel: 768, dFF: 3072, decoder: true,
	})
}

func attentionStack(cfg attentionCfg) *graph.Graph {
	b := graph.NewBuilder(cfg.name)
	// The sequence is modeled as a seqLen×1 spatial map with dModel channels.
	x := b.Input("tokens", cfg.dModel, cfg.seqLen, 1)
	for l := 1; l <= cfg.layers; l++ {
		p := "l" + strconv.Itoa(l)
		// Multi-head attention: Q/K/V projections, scores = Q·Kᵀ
		// (seqLen×seqLen activation), context = scores·V, output projection,
		// then the residual join.
		q := b.Matmul(p+"_q", x, cfg.dModel)
		k := b.Matmul(p+"_k", x, cfg.dModel)
		v := b.Matmul(p+"_v", x, cfg.dModel)
		scores := b.MatmulJoin(p+"_scores", q, k, cfg.seqLen)
		ctx := b.MatmulJoin(p+"_ctx", scores, v, cfg.dModel)
		proj := b.Matmul(p+"_proj", ctx, cfg.dModel)
		x = b.Eltwise(p+"_attn_add", proj, x)
		// Feed-forward block with its residual join.
		ff := b.Matmul(p+"_ff1", x, cfg.dFF)
		ff = b.Matmul(p+"_ff2", ff, cfg.dModel)
		x = b.Eltwise(p+"_ff_add", ff, x)
	}
	b.Matmul(cfg.name+"_head", x, cfg.dModel)
	return b.MustFinalize()
}
