package hdfs

import (
	"testing"

	"blobseer/internal/fs"
	"blobseer/internal/placement"
)

// TestNamenodeForgetsReplacedFiles: the chunk-layout map holds exactly
// the files the tree links — not the ones an overwrite replaced, a
// refused create numbered, or a delete unlinked — and the tree's orphan
// list does not grow behind it.
func TestNamenodeForgetsReplacedFiles(t *testing.T) {
	n := NewNamenode(4096, placement.NewRoundRobin())
	n.RegisterDatanode("dn-0", "host-0")
	for i := 0; i < 100; i++ {
		id, err := n.Create("/dir/f", true, "lease")
		if err != nil {
			t.Fatal(err)
		}
		bid, _, err := n.AddBlock(id, "lease", "", 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.CompleteBlock(id, "lease", bid, 10); err != nil {
			t.Fatal(err)
		}
		if err := n.CompleteFile(id, "lease"); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Create("/dir/f", false, "other"); err != fs.ErrExists {
			t.Fatalf("create over an existing file = %v, want ErrExists", err)
		}
	}
	if len(n.files) != 1 {
		t.Errorf("%d file entries after 100 overwrites of one path, want 1", len(n.files))
	}
	if st, err := n.Stat("/dir/f"); err != nil || st.Size != 10 {
		t.Errorf("Stat = %+v, %v", st, err)
	}
	if err := n.Delete("/dir", true); err != nil {
		t.Fatal(err)
	}
	if len(n.files) != 0 || len(n.ns.Orphaned()) != 0 {
		t.Errorf("%d file entries and %d orphans left after delete, want none", len(n.files), len(n.ns.Orphaned()))
	}
}
