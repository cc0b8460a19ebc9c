package store

import (
	"net/url"
	"path/filepath"
	"strings"
	"testing"
)

func TestOpenSchemes(t *testing.T) {
	cases := []struct {
		url  string
		want string // concrete type name
	}{
		{"mem://", "*store.MemStore"},
		{"file://" + t.TempDir(), "*store.FSStore"},
		{"file://" + t.TempDir() + "?sync=1", "*store.FSStore"},
	}
	for _, c := range cases {
		st, err := Open(c.url)
		if err != nil {
			t.Fatalf("Open(%q): %v", c.url, err)
		}
		switch c.want {
		case "*store.MemStore":
			_, ok := st.(*MemStore)
			if !ok {
				t.Fatalf("Open(%q) = %T", c.url, st)
			}
		case "*store.FSStore":
			_, ok := st.(*FSStore)
			if !ok {
				t.Fatalf("Open(%q) = %T", c.url, st)
			}
		}
		st.Close()
	}
}

func TestOpenErrors(t *testing.T) {
	bad := []string{
		"",
		"bogus://x",
		"mem://?sync=1",
		"file://" + t.TempDir() + "?snyc=1", // a mistyped option is refused, not ignored
	}
	for _, u := range bad {
		if st, err := Open(u); err == nil {
			st.Close()
			t.Fatalf("Open(%q) succeeded, want error", u)
		}
	}
	// An unknown scheme's error names the registered ones, read from the
	// registry, and so does a missing scheme's. The hot/cold scheme is
	// gone: the page cache is the hot tier over file://.
	for _, u := range []string{"http://h/b", "tiered://?hot=mem://&cold=mem://", "/var/blocks"} {
		_, err := Open(u)
		if err == nil {
			t.Fatalf("Open(%q) succeeded, want error", u)
		}
		if !strings.Contains(err.Error(), "file, mem") {
			t.Errorf("Open(%q) = %v, want it to name the file and mem schemes", u, err)
		}
	}
	if _, err := Open("http://h/b"); err == nil || !strings.Contains(err.Error(), "unknown backend scheme") {
		t.Fatalf("Open(http://h/b) = %v, want an unknown backend scheme", err)
	}
}

func TestOpenFilePaths(t *testing.T) {
	dir := t.TempDir()
	abs := filepath.Join(dir, "blocks")
	st, err := Open("file://" + abs)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if err := st.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// A second store over the same directory sees the block.
	st2, err := Open("file://" + abs)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st2.Close()
	if !holds(t, st2, "k") {
		t.Fatal("block not visible through second store over same dir")
	}
}

func TestRegisterCustomScheme(t *testing.T) {
	shared := NewMemStore()
	Register("custom-test", func(u *url.URL) (Store, error) { return shared, nil })
	st, err := Open("custom-test://whatever")
	if err != nil {
		t.Fatalf("Open(custom scheme): %v", err)
	}
	if st != Store(shared) {
		t.Fatalf("Open returned %T, want the registered instance", st)
	}
	// The error for an unknown scheme lists the new one with the built-ins.
	if _, err := Open("bogus://x"); err == nil || !strings.Contains(err.Error(), "custom-test, file, mem") {
		t.Fatalf("Open(bogus://x) = %v, want it to list custom-test, file and mem in order", err)
	}
}
