// Package serialize provides a stable JSON interchange format for
// computation graphs and partitions, so searches can be exported, compared
// across runs, and fed to external tooling (the cmd tools' -dump flags).
package serialize

import (
	"encoding/json"
	"fmt"

	"cocco/internal/graph"
	"cocco/internal/partition"
)

// NodeJSON is the wire form of one layer.
type NodeJSON struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	KernelH int    `json:"kernel_h"`
	KernelW int    `json:"kernel_w"`
	StrideH int    `json:"stride_h"`
	StrideW int    `json:"stride_w"`
	InC     int    `json:"in_c"`
	OutC    int    `json:"out_c"`
	OutH    int    `json:"out_h"`
	OutW    int    `json:"out_w"`
	Preds   []int  `json:"preds,omitempty"`
}

// GraphJSON is the wire form of a computation graph.
type GraphJSON struct {
	Name  string     `json:"name"`
	Nodes []NodeJSON `json:"nodes"`
}

// EncodeGraph marshals g.
func EncodeGraph(g *graph.Graph) ([]byte, error) {
	out := GraphJSON{Name: g.Name}
	for _, n := range g.Nodes() {
		kn := n.Kind.String()
		if _, err := graph.ParseOpKind(kn); err != nil {
			return nil, fmt.Errorf("serialize: unknown kind %v on node %d", n.Kind, n.ID)
		}
		var preds []int
		for _, p := range g.PredIDs(n.ID) {
			preds = append(preds, int(p))
		}
		out.Nodes = append(out.Nodes, NodeJSON{
			ID: n.ID, Name: n.Name, Kind: kn,
			KernelH: n.KernelH, KernelW: n.KernelW,
			StrideH: n.StrideH, StrideW: n.StrideW,
			InC: n.InC, OutC: n.OutC, OutH: n.OutH, OutW: n.OutW,
			Preds: preds,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// DecodeGraph rebuilds a graph from its wire form. Node ids must be dense
// and topologically ordered (the format EncodeGraph produces).
func DecodeGraph(data []byte) (*graph.Graph, error) {
	var in GraphJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	b := graph.NewBuilder(in.Name)
	for i, n := range in.Nodes {
		if n.ID != i {
			return nil, fmt.Errorf("serialize: node %d has id %d (ids must be dense, in order)", i, n.ID)
		}
		kind, err := graph.ParseOpKind(n.Kind)
		if err != nil {
			return nil, fmt.Errorf("serialize: node %q: unknown kind %q", n.Name, n.Kind)
		}
		var id int
		if kind == graph.OpInput {
			if len(n.Preds) > 0 {
				return nil, fmt.Errorf("serialize: node %q: input node with preds %v", n.Name, n.Preds)
			}
			id = b.Input(n.Name, n.OutC, n.OutH, n.OutW)
		} else {
			k := n.KernelH
			s := n.StrideH
			if n.KernelW != n.KernelH || n.StrideW != n.StrideH {
				// Custom keeps square kernels; reject anisotropic forms the
				// encoder never produces rather than silently altering them.
				return nil, fmt.Errorf("serialize: node %q: anisotropic kernel/stride unsupported", n.Name)
			}
			id = b.Custom(n.Name, kind, k, s, n.InC, n.OutC, n.OutH, n.OutW, n.Preds...)
		}
		if id < 0 {
			// Ids are dense and in order, so only a rejected node gets an
			// id other than n.ID; the builder's error names it.
			return nil, fmt.Errorf("serialize: %w", b.Err())
		}
	}
	return b.Finalize()
}

// PartitionJSON is the wire form of a partition: the subgraph id per node
// (-1 for inputs), plus the graph name for a sanity check at decode time.
type PartitionJSON struct {
	Graph     string  `json:"graph"`
	Subgraphs int     `json:"subgraphs"`
	Assign    []int   `json:"assign"`
	Members   [][]int `json:"members"`
}

// EncodePartition marshals p.
func EncodePartition(p *partition.Partition) ([]byte, error) {
	out := PartitionJSON{
		Graph:     p.Graph().Name,
		Subgraphs: p.NumSubgraphs(),
		Assign:    p.Assignment(),
		Members:   p.Subgraphs(),
	}
	return json.MarshalIndent(out, "", "  ")
}

// DecodePartition rebuilds (and re-validates) a partition of g.
func DecodePartition(g *graph.Graph, data []byte) (*partition.Partition, error) {
	var in PartitionJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	if in.Graph != g.Name {
		return nil, fmt.Errorf("serialize: partition is for graph %q, not %q", in.Graph, g.Name)
	}
	return partition.From(g, in.Assign)
}
