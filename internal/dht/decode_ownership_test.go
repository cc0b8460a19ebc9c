package dht_test

import (
	"context"
	"reflect"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/dht"
	"blobseer/internal/mdtree"
)

// Nodes a DHTStore decodes, their interned provider lists included, stay
// intact once the frames they arrived in are released and reused.
func init() {
	dht.OwnershipCases = append(dht.OwnershipCases, struct {
		Name string
		Run  func(t *testing.T, c *dht.Client)
	}{"decoded nodes outlive their frames", decodedNodesOutliveFrames})
}

func decodedNodesOutliveFrames(t *testing.T, c *dht.Client) {
	ctx := context.Background()
	st := mdtree.NewDHTStore(c)
	leaf := func(off int64, providers ...string) mdtree.Node {
		return mdtree.Node{
			ID:   mdtree.NodeID{Blob: 9, Version: 1, Off: off, Span: 4096},
			Leaf: true,
			Block: mdtree.BlockRef{
				Key:       blob.BlockKey{Blob: 9, Nonce: 77, Seq: uint32(off / 4096)},
				Providers: providers,
				Len:       4096,
			},
		}
	}
	nodes := []mdtree.Node{
		leaf(0, "prov-a:7201", "prov-b:7202"),
		leaf(4096, "prov-a:7201", "prov-b:7202"), // the same replica list: interned once
		leaf(8192, "prov-c:7203"),
		{ID: mdtree.NodeID{Blob: 9, Version: 1, Off: 0, Span: 16384}, Left: mdtree.ChildRef{Version: 1}},
	}
	if err := st.PutBatch(ctx, nodes); err != nil {
		t.Fatal(err)
	}
	ids := make([]mdtree.NodeID, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	got, err := st.GetBatch(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	one, err := st.Get(ctx, ids[2])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ { // recycle every frame those nodes came in
		if _, err := st.Get(ctx, ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		if !reflect.DeepEqual(got[n.ID], n) {
			t.Fatalf("node %s = %+v after its frame was recycled, want %+v", n.ID.Key(), got[n.ID], n)
		}
	}
	if !reflect.DeepEqual(one, nodes[2]) {
		t.Fatalf("Get result = %+v after its frame was recycled, want %+v", one, nodes[2])
	}
}
