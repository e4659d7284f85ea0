package models_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"cocco/internal/models"
	"cocco/internal/serialize"
)

// zooDigest pins every zoo graph exactly: the sha256 of its EncodeGraph
// bytes followed by every accessor — each node's fields and adjacency runs,
// ComputeIDs, Inputs, Outputs, Edges, and the totals. A construction change
// that should leave the graphs alone must leave these alone; a deliberate
// model change updates them, together with the golden corpus.
var zooDigest = map[string]string{
	"densenet121": "8b13dc876c2cfddf98e78b03bfb1503e1177bf899478e5048823f7847a552bfa",
	"googlenet":   "1ff9ad98f5d6a527b442c93d7a0dc9d0a0ecba2487e8d8ebf23f522a616a70b0",
	"gpt":         "1f577a0e0f720ec3df7d86370ab7e64725e031da5895a570814ffdba1cd7e5a5",
	"mobilenetv2": "2d1e9b0fc029a78a65816107f8fbdbd8d1399265e4be163aca306e1f90ec9014",
	"nasnet":      "e11d3bad85e72945338d654eee68651287bac400da7746b46ae6203221282ce0",
	"randwire-a":  "b82e8e16148eccef372cea53903299ae512a0b4c81162ceeeccf601b9b8e9a96",
	"randwire-b":  "7beda0074372dcd5dde7dc18dc0100f8bddbf688088090a362814bd8688f3c97",
	"resnet152":   "8f196cdfc1136f75373ccdf69361573700a4118c64b9294241e572223fe3bffd",
	"resnet50":    "b4ccd2ebcd5fa8be2aa3ab35012a6756df24ee2514ae1701923d909718501d1d",
	"transformer": "7e3c3bde14b8927d296f50161586f5f3fc1980de9c906d133e00e3bdb15fce9b",
	"unet":        "3f89ad4c0536d6cf189d000643ea3d71e7937cb7828416cde8c0e5726a684ca3",
	"vgg16":       "e3515152a901ecc47c3ac11444d74dd33f25187ed75478c8039721c2265b7ffc",
}

func digest(t *testing.T, name string) string {
	t.Helper()
	g := models.MustBuild(name)
	enc, err := serialize.EncodeGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(enc)
	fmt.Fprintf(h, "%s len=%d edges=%d macs=%d weights=%d\n", g.Name, g.Len(), g.Edges(), g.TotalMACs(), g.TotalWeightBytes())
	for id := 0; id < g.Len(); id++ {
		fmt.Fprintf(h, "%+v pred=%v succ=%v\n", *g.Node(id), g.PredIDs(id), g.SuccIDs(id))
	}
	fmt.Fprintf(h, "compute=%v inputs=%v outputs=%v\n", g.ComputeIDs(), g.Inputs(), g.Outputs())
	return hex.EncodeToString(h.Sum(nil))
}

func TestZooIdentity(t *testing.T) {
	for _, name := range models.Names() {
		if got := digest(t, name); got != zooDigest[name] {
			t.Errorf("%s: digest %s, want %s", name, got, zooDigest[name])
		}
	}
}
