package serialize

import (
	"bytes"
	"strings"
	"testing"

	"cocco/internal/graph"
	"cocco/internal/models"
	"cocco/internal/partition"
)

func TestGraphRoundTrip(t *testing.T) {
	for _, name := range []string{"vgg16", "googlenet", "randwire-a", "unet"} {
		g := models.MustBuild(name)
		data, err := EncodeGraph(g)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		back, err := DecodeGraph(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if back.Len() != g.Len() || back.Edges() != g.Edges() || back.Name != g.Name {
			t.Fatalf("%s: structure changed: %d/%d nodes, %d/%d edges",
				name, back.Len(), g.Len(), back.Edges(), g.Edges())
		}
		for i := 0; i < g.Len(); i++ {
			a, b := g.Node(i), back.Node(i)
			if *a != *b {
				t.Fatalf("%s: node %d differs: %+v vs %+v", name, i, a, b)
			}
			pa, pb := g.Pred(i), back.Pred(i)
			if len(pa) != len(pb) {
				t.Fatalf("%s: node %d preds differ", name, i)
			}
			for j := range pa {
				if pa[j] != pb[j] {
					t.Fatalf("%s: node %d pred %d differs", name, i, j)
				}
			}
		}
		// Derived quantities survive.
		if back.TotalWeightBytes() != g.TotalWeightBytes() || back.TotalMACs() != g.TotalMACs() {
			t.Errorf("%s: derived totals changed", name)
		}
	}
}

// FuzzDecodeGraph: arbitrary bytes must never panic the graph decoder, and
// any graph it accepts must re-encode to bytes that decode to an identical
// graph (one that encodes to the same bytes again).
func FuzzDecodeGraph(f *testing.F) {
	for _, name := range []string{"vgg16", "googlenet", "randwire-a"} {
		data, err := EncodeGraph(models.MustBuild(name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGraph(data)
		if err != nil {
			return
		}
		enc, err := EncodeGraph(g)
		if err != nil {
			t.Fatalf("accepted graph does not re-encode: %v", err)
		}
		back, err := DecodeGraph(enc)
		if err != nil {
			t.Fatalf("re-encoded graph does not decode: %v", err)
		}
		again, err := EncodeGraph(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) || back.Edges() != g.Edges() {
			t.Fatalf("graph changed across a re-encode:\n%s\nvs\n%s", enc, again)
		}
	})
}

func TestPartitionRoundTrip(t *testing.T) {
	g := models.MustBuild("resnet50")
	p := partition.Singletons(g)
	q, err := p.TryMerge(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodePartition(q)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePartition(g, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Key() != q.Key() {
		t.Error("partition changed across round trip")
	}
}

func TestDecodePartitionWrongGraph(t *testing.T) {
	g := models.MustBuild("resnet50")
	data, err := EncodePartition(partition.Singletons(g))
	if err != nil {
		t.Fatal(err)
	}
	other := models.MustBuild("vgg16")
	if _, err := DecodePartition(other, data); err == nil || !strings.Contains(err.Error(), "resnet50") {
		t.Errorf("wrong-graph decode accepted: %v", err)
	}
}

func TestDecodeGraphErrors(t *testing.T) {
	if _, err := DecodeGraph([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := DecodeGraph([]byte(`{"name":"x","nodes":[{"id":5,"name":"a","kind":"input","out_c":1,"out_h":1,"out_w":1}]}`)); err == nil {
		t.Error("sparse ids accepted")
	}
	if _, err := DecodeGraph([]byte(`{"name":"x","nodes":[{"id":0,"name":"a","kind":"warp","out_c":1,"out_h":1,"out_w":1}]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	aniso := `{"name":"x","nodes":[
	  {"id":0,"name":"a","kind":"input","out_c":1,"out_h":8,"out_w":8,"kernel_h":1,"kernel_w":1,"stride_h":1,"stride_w":1},
	  {"id":1,"name":"b","kind":"conv","kernel_h":3,"kernel_w":5,"stride_h":1,"stride_w":1,"in_c":1,"out_c":1,"out_h":8,"out_w":8,"preds":[0]}]}`
	if _, err := DecodeGraph([]byte(aniso)); err == nil {
		t.Error("anisotropic kernel accepted")
	}
}

func TestEncodeCustomGraph(t *testing.T) {
	b := graph.NewBuilder("tiny")
	in := b.Input("in", 3, 8, 8)
	b.Conv("c", in, 4, 3, 1)
	g := b.MustFinalize()
	data, err := EncodeGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind": "conv"`) {
		t.Errorf("unexpected encoding: %s", data)
	}
}
