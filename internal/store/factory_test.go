package store

import (
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestOpenSchemes(t *testing.T) {
	cases := []struct {
		url  string
		want string // concrete type name
	}{
		{"mem://", "*store.MemStore"},
		{"file://" + t.TempDir(), "*store.FSStore"},
		{"file://" + t.TempDir() + "?sync=1", "*store.FSStore"},
		{"tiered://?hot=mem://&cold=mem://", "*store.Tiered"},
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
		case "*store.Tiered":
			_, ok := st.(*Tiered)
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
		"tiered://?hot=mem://&cold=mem://&write-back=1",
		"tiered://?hot=mem://?x=1&cold=mem://", // the nested store refuses it too
		"tiered://",                            // missing hot= and cold=
		"tiered://?hot=mem://",                 // missing cold=
		"tiered://?hot=x://&cold=mem://",       // bad nested scheme
		"tiered://?hot=mem://&cold=mem://&max-hot-bytes=abc",
		"tiered://?hot=mem://&cold=mem://&demote-after=xyz",
	}
	for _, u := range bad {
		if st, err := Open(u); err == nil {
			st.Close()
			t.Fatalf("Open(%q) succeeded, want error", u)
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

func TestOpenTieredOptions(t *testing.T) {
	q := url.Values{}
	q.Set("hot", "mem://")
	q.Set("cold", "mem://")
	q.Set("max-hot-bytes", "4096")
	q.Set("demote-after", "250ms")
	q.Set("demote-every", "1s")
	st, err := Open("tiered://?" + q.Encode())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	ti, ok := st.(*Tiered)
	if !ok {
		t.Fatalf("Open = %T", st)
	}
	if ti.opts.MaxHotBytes != 4096 {
		t.Fatalf("MaxHotBytes = %d", ti.opts.MaxHotBytes)
	}
	if ti.opts.DemoteAfter != 250*time.Millisecond {
		t.Fatalf("DemoteAfter = %v", ti.opts.DemoteAfter)
	}
	if ti.opts.Interval != time.Second {
		t.Fatalf("Interval = %v", ti.opts.Interval)
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
	// A tiered URL can nest a custom scheme too.
	ti, err := Open("tiered://?hot=mem://&cold=custom-test://x")
	if err != nil {
		t.Fatalf("Open(tiered over custom): %v", err)
	}
	ti.Close()
}
