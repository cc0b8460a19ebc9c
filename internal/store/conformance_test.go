package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"blobseer/internal/blob"
	"blobseer/internal/store"
	"blobseer/internal/store/storetest"
)

// backends is every backend, each behind the same URL factory the
// daemons use.
var backends = []struct {
	name string
	mk   func(t *testing.T) store.Store
}{
	{"Mem", func(t *testing.T) store.Store {
		return openURL(t, "mem://")
	}},
	{"FS", func(t *testing.T) store.Store {
		return openURL(t, "file://"+t.TempDir())
	}},
	{"FSSync", func(t *testing.T) store.Store {
		return openURL(t, "file://"+t.TempDir()+"?sync=1")
	}},
}

// TestConformance runs the shared contract harness against every
// backend.
func TestConformance(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) { storetest.Run(t, b.mk) })
	}
}

// TestPutWriterFrameOrders: whatever order a block's frames land in —
// ascending (the common case, which a buffering backend grows for by
// appending), any other, overlapping, or leaving a gap nobody fills —
// the value is each byte's last write, zero where there was none. (It
// lives here, not in storetest, to share the backend table.)
func TestPutWriterFrameOrders(t *testing.T) {
	src := make([]byte, 8000)
	for i := range src {
		src[i] = byte(1 + i%251)
	}
	type frame struct{ off, n int }
	cases := map[string][]frame{
		"in-order":       {{0, 1000}, {1000, 1000}, {2000, 1000}, {3000, 1000}, {4000, 1000}, {5000, 1000}, {6000, 1000}, {7000, 1000}},
		"out-of-order":   {{2000, 1000}, {0, 1000}, {1000, 1000}, {3000, 1000}, {7000, 1000}, {5000, 1000}, {6000, 1000}, {4000, 1000}},
		"overlapping":    {{0, 3000}, {2000, 3000}, {1000, 500}, {4500, 3500}},
		"overlap-in-cap": {{0, 1000}, {990, 20}},
		"gap":            {{0, 1000}, {3000, 1000}},
		"gap-in-growth":  {{0, 1000}, {1000, 1000}, {2000, 1000}, {3010, 20}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			st := b.mk(t)
			defer st.Close()
			for name, frames := range cases {
				w, err := st.PutWriter(name)
				if err != nil {
					t.Fatalf("%s: PutWriter: %v", name, err)
				}
				var want []byte
				for _, f := range frames {
					if err := w.WriteAt(src[f.off:f.off+f.n], int64(f.off)); err != nil {
						t.Fatalf("%s: WriteAt(%d bytes at %d): %v", name, f.n, f.off, err)
					}
					if end := f.off + f.n; end > len(want) {
						want = append(want, make([]byte, end-len(want))...)
					}
					copy(want[f.off:], src[f.off:f.off+f.n])
				}
				if err := w.Commit(); err != nil {
					t.Fatalf("%s: Commit: %v", name, err)
				}
				if got, err := st.Get(name); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s: assembled %d bytes (%v) differ from the %d written", name, len(got), err, len(want))
				}
			}
		})
	}
}

// lendFunc is Lend or LendFile, with the lent bytes behind a reader.
type lendFunc func(key string, off, length int64) (io.ReadSeeker, error)

// lenderOf returns st's lend function, nil for a backend that does not lend.
func lenderOf(t *testing.T, st store.Store) lendFunc {
	switch l := st.(type) {
	case store.Lender:
		return func(key string, off, length int64) (io.ReadSeeker, error) {
			v, err := l.Lend([]byte(key), off, length)
			if err == nil && cap(v) != len(v) {
				err = fmt.Errorf("lent %d bytes with room for %d", len(v), cap(v))
			}
			return bytes.NewReader(v), err
		}
	case store.FileLender:
		return func(key string, off, length int64) (io.ReadSeeker, error) {
			f, n, err := l.LendFile([]byte(key), off, length)
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { f.Close() })
			return io.NewSectionReader(f, max(off, 0), n), nil
		}
	}
	return nil
}

// TestLends: a backend that lends (store.Lender, mem://; store.FileLender,
// file://) hands out the bytes it holds, clamped like GetRange, and those
// bytes never change — not when the key is overwritten, not when it is
// deleted — while the store still never keeps a slice it was handed.
func TestLends(t *testing.T) {
	var lenders []string
	for _, b := range backends {
		st := b.mk(t)
		defer st.Close()
		lend := lenderOf(t, st)
		if lend == nil {
			continue
		}
		lenders = append(lenders, b.name)
		read := func(r io.ReadSeeker) string {
			r.Seek(0, io.SeekStart)
			v, err := io.ReadAll(r)
			if err != nil {
				t.Fatalf("%s: reading lent bytes: %v", b.name, err)
			}
			return string(v)
		}
		if _, err := lend("absent", 0, -1); err != store.ErrNotFound {
			t.Fatalf("%s: lend of an absent key: err = %v, want ErrNotFound", b.name, err)
		}
		val := []byte("0123456789")
		if err := st.Put("k", val); err != nil {
			t.Fatal(err)
		}
		clear(val) // WritesCopy: what is lent is the store's copy, not the caller's slice
		for _, c := range []struct {
			off, length int64
			want        string
		}{{7, -1, "789"}, {20, 5, ""}, {-3, 2, "01"}, {1, math.MaxInt64, "123456789"}} {
			if r, err := lend("k", c.off, c.length); err != nil || read(r) != c.want {
				t.Fatalf("%s: lend(%d, %d) = %v, want %q", b.name, c.off, c.length, err, c.want)
			}
		}
		lent, err := lend("k", 2, 5)
		if err != nil {
			t.Fatalf("%s: lend(2, 5): %v", b.name, err)
		}
		err = st.Put("k", []byte("overwritten"))
		w, werr := st.PutWriter("k")
		if err == nil && werr == nil {
			err = errors.Join(w.WriteAt([]byte("and again!!"), 0), w.Commit())
		}
		if err != nil || werr != nil {
			t.Fatal(err, werr)
		}
		if got := read(lent); got != "23456" {
			t.Fatalf("%s: lent bytes read %q after the key was overwritten", b.name, got)
		}
		if err := st.Delete("k"); err != nil {
			t.Fatal(err)
		}
		if got := read(lent); got != "23456" {
			t.Fatalf("%s: lent bytes read %q after the key was deleted", b.name, got)
		}
	}
	if want := []string{"Mem", "FS", "FSSync"}; !slices.Equal(lenders, want) {
		t.Errorf("backends that lend: %v, want %v", lenders, want)
	}
}

func openURL(t *testing.T, rawURL string) store.Store {
	t.Helper()
	st, err := store.Open(rawURL)
	if err != nil {
		t.Fatalf("Open(%q): %v", rawURL, err)
	}
	return st
}

// TestFSKeyFileName pins the file a block key is stored in: the hex of
// its text, so a file:// directory written by any earlier build reads
// back, whether the key comes as a string or as the bytes a provider
// writes it into.
func TestFSKeyFileName(t *testing.T) {
	dir := t.TempDir()
	st := openURL(t, "file://"+dir)
	defer st.Close()
	key := blob.BlockKey{Blob: 7, Nonce: 0xab, Seq: 3}
	const name = "62372f61622f33" // hex of "b7/ab/3"
	if err := os.WriteFile(filepath.Join(dir, name), []byte("written by hand"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 32)
	if n, err := st.ReadAt(key.AppendText(nil), p, 0); err != nil || string(p[:n]) != "written by hand" {
		t.Fatalf("ReadAt(%s) = %q, %v; want the file %s", key, p[:n], err, name)
	}
	if err := st.Put(key.String(), []byte("put")); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(got) != "put" {
		t.Fatalf("file %s after Put(%s) = %q, %v", name, key, got, err)
	}
}
