// Package storetest is the shared conformance harness for Store
// backends. Every backend — mem, fs, tiered — must pass the same
// contract: Run exercises the visibility, clamping, enumeration and
// concurrency semantics the provider and repair planes rely on, so a
// new backend is wired in by writing an opener, not by re-deriving the
// contract from the consumers.
package storetest

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"blobseer/internal/store"
)

// Run exercises the full Store contract against a fresh store from mk.
// mk is called once per subtest so cross-test state never leaks.
func Run(t *testing.T, mk func(t *testing.T) store.Store) {
	t.Helper()
	tests := []struct {
		name string
		fn   func(t *testing.T, st store.Store)
	}{
		{"PutGet", testPutGet},
		{"Overwrite", testOverwrite},
		{"NotFound", testNotFound},
		{"GetRangeClamps", testGetRangeClamps},
		{"WritesCopy", testWritesCopy},
		{"HasDelete", testHasDelete},
		{"PutWriter", testPutWriter},
		{"PutWriterInvisible", testPutWriterInvisible},
		{"PutWriterAbort", testPutWriterAbort},
		{"DeletePrefix", testDeletePrefix},
		{"DeletePrefixSkipsInFlight", testDeletePrefixSkipsInFlight},
		{"Keys", testKeys},
		{"Stats", testStats},
		{"AwkwardKeys", testAwkwardKeys},
		{"Concurrent", testConcurrent},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			st := mk(t)
			defer st.Close()
			tc.fn(t, st)
		})
	}
}

func put(t *testing.T, st store.Store, key, val string) {
	t.Helper()
	if err := st.Put(key, []byte(val)); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

func get(t *testing.T, st store.Store, key string) string {
	t.Helper()
	v, err := st.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	return string(v)
}

func testPutGet(t *testing.T, st store.Store) {
	put(t, st, "a", "alpha")
	put(t, st, "b", "")
	if got := get(t, st, "a"); got != "alpha" {
		t.Fatalf("Get(a) = %q, want alpha", got)
	}
	if got := get(t, st, "b"); got != "" {
		t.Fatalf("Get(b) = %q, want empty", got)
	}
}

func testOverwrite(t *testing.T, st store.Store) {
	put(t, st, "k", "first")
	put(t, st, "k", "second-and-longer")
	if got := get(t, st, "k"); got != "second-and-longer" {
		t.Fatalf("Get after overwrite = %q", got)
	}
	put(t, st, "k", "3rd")
	if got := get(t, st, "k"); got != "3rd" {
		t.Fatalf("Get after shrinking overwrite = %q", got)
	}
}

func testNotFound(t *testing.T, st store.Store) {
	if _, err := st.Get("missing"); err != store.ErrNotFound {
		t.Fatalf("Get(missing) err = %v, want ErrNotFound", err)
	}
	if _, err := st.GetRange("missing", 0, 4); err != store.ErrNotFound {
		t.Fatalf("GetRange(missing) err = %v, want ErrNotFound", err)
	}
	if _, err := st.ReadAt("missing", make([]byte, 4), 0); err != store.ErrNotFound {
		t.Fatalf("ReadAt(missing) err = %v, want ErrNotFound", err)
	}
	if st.Has("missing") {
		t.Fatal("Has(missing) = true")
	}
	if err := st.Delete("missing"); err != nil {
		t.Fatalf("Delete(missing) must be a no-op, got %v", err)
	}
}

func testGetRangeClamps(t *testing.T, st store.Store) {
	put(t, st, "k", "0123456789")
	cases := []struct {
		off, length int64
		want        string
	}{
		{0, 10, "0123456789"},
		{0, -1, "0123456789"},
		{3, 4, "3456"},
		{3, -1, "3456789"},
		{0, 0, ""},
		{9, 5, "9"},      // length clamps to the end
		{10, 3, ""},      // start at end
		{99, 3, ""},      // start past end
		{-2, 5, "01234"}, // negative start clamps to 0, length kept
		{-2, -1, "0123456789"},
		// off+length overflows int64
		{1, math.MaxInt64, "123456789"},
		{9, math.MaxInt64 - 3, "9"},
		{0, math.MaxInt64, "0123456789"},
	}
	for _, c := range cases {
		got, err := st.GetRange("k", c.off, c.length)
		if err != nil {
			t.Fatalf("GetRange(%d,%d): %v", c.off, c.length, err)
		}
		if string(got) != c.want {
			t.Fatalf("GetRange(%d,%d) = %q, want %q", c.off, c.length, got, c.want)
		}
		if c.length < 0 || c.length > 16 {
			continue
		}
		// ReadAt clamps the same way into caller memory, and leaves
		// everything past the count it returns alone.
		p := []byte("################")
		n, err := st.ReadAt("k", p[:c.length], c.off)
		if err != nil || string(p[:n]) != c.want || strings.Trim(string(p[n:]), "#") != "" {
			t.Fatalf("ReadAt(%d bytes at %d) = %d, %v leaving %q, want %q then untouched", c.length, c.off, n, err, p, c.want)
		}
	}
}

// testWritesCopy: Put and BlockWriter.WriteAt take copies, so callers
// (the provider's handlers) may recycle their buffers at once.
func testWritesCopy(t *testing.T, st store.Store) {
	val, frame := []byte("put-value"), []byte("frame-value")
	w, err := st.PutWriter("w")
	if err == nil {
		err = errors.Join(st.Put("p", val), w.WriteAt(frame, 0))
	}
	clear(val)
	clear(frame)
	if err == nil {
		err = w.Commit()
	}
	if err != nil {
		t.Fatal(err)
	}
	if p, w := get(t, st, "p"), get(t, st, "w"); p != "put-value" || w != "frame-value" {
		t.Fatalf("store kept the caller's slices: Put -> %q, WriteAt -> %q", p, w)
	}
}

func testHasDelete(t *testing.T, st store.Store) {
	put(t, st, "k", "v")
	if !st.Has("k") {
		t.Fatal("Has(k) = false after Put")
	}
	if err := st.Delete("k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if st.Has("k") {
		t.Fatal("Has(k) = true after Delete")
	}
	if _, err := st.Get("k"); err != store.ErrNotFound {
		t.Fatalf("Get after Delete err = %v, want ErrNotFound", err)
	}
}

func testPutWriter(t *testing.T, st store.Store) {
	w, err := st.PutWriter("k")
	if err != nil {
		t.Fatalf("PutWriter: %v", err)
	}
	// Frames land out of order and overlapping; the last write wins.
	if err := w.WriteAt([]byte("6789"), 6); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := w.WriteAt([]byte("012345"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := w.WriteAt([]byte("345"), 3); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := get(t, st, "k"); got != "0123456789" {
		t.Fatalf("assembled block = %q, want 0123456789", got)
	}
}

func testPutWriterInvisible(t *testing.T, st store.Store) {
	w, err := st.PutWriter("k")
	if err != nil {
		t.Fatalf("PutWriter: %v", err)
	}
	if err := w.WriteAt([]byte("partial"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if st.Has("k") {
		t.Fatal("in-flight write visible via Has")
	}
	if _, err := st.Get("k"); err != store.ErrNotFound {
		t.Fatalf("in-flight write visible via Get: err = %v", err)
	}
	keys, err := st.Keys("")
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(keys) != 0 {
		t.Fatalf("in-flight write visible via Keys: %v", keys)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := get(t, st, "k"); got != "partial" {
		t.Fatalf("Get after Commit = %q", got)
	}
}

func testPutWriterAbort(t *testing.T, st store.Store) {
	w, err := st.PutWriter("k")
	if err != nil {
		t.Fatalf("PutWriter: %v", err)
	}
	if err := w.WriteAt([]byte("doomed"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := w.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if st.Has("k") {
		t.Fatal("aborted write visible")
	}

	// A writer overwriting an existing block must not clobber it before
	// Commit, and the committed value replaces the old one.
	put(t, st, "x", "old")
	w2, err := st.PutWriter("x")
	if err != nil {
		t.Fatalf("PutWriter: %v", err)
	}
	if err := w2.WriteAt([]byte("new!"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if got := get(t, st, "x"); got != "old" {
		t.Fatalf("old value clobbered pre-Commit: %q", got)
	}
	if err := w2.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := get(t, st, "x"); got != "new!" {
		t.Fatalf("Get after overwriting Commit = %q", got)
	}
}

func testDeletePrefix(t *testing.T, st store.Store) {
	put(t, st, "blk/1", "a")
	put(t, st, "blk/2", "bb")
	put(t, st, "blk/3", "ccc")
	put(t, st, "other", "dddd")
	n, err := st.DeletePrefix("blk/")
	if err != nil {
		t.Fatalf("DeletePrefix: %v", err)
	}
	if n != 3 {
		t.Fatalf("DeletePrefix removed %d, want 3", n)
	}
	if st.Has("blk/2") {
		t.Fatal("prefixed key survived DeletePrefix")
	}
	if !st.Has("other") {
		t.Fatal("unrelated key removed by DeletePrefix")
	}
	n, err = st.DeletePrefix("blk/")
	if err != nil || n != 0 {
		t.Fatalf("second DeletePrefix = (%d, %v), want (0, nil)", n, err)
	}
}

func testDeletePrefixSkipsInFlight(t *testing.T, st store.Store) {
	put(t, st, "blk/done", "x")
	w, err := st.PutWriter("blk/inflight")
	if err != nil {
		t.Fatalf("PutWriter: %v", err)
	}
	if err := w.WriteAt([]byte("y"), 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	n, err := st.DeletePrefix("blk/")
	if err != nil {
		t.Fatalf("DeletePrefix: %v", err)
	}
	if n != 1 {
		t.Fatalf("DeletePrefix counted %d, want 1 (in-flight write is not a block)", n)
	}
	// The sweep must not have broken the in-flight writer.
	if err := w.Commit(); err != nil {
		t.Fatalf("Commit after DeletePrefix: %v", err)
	}
	if got := get(t, st, "blk/inflight"); got != "y" {
		t.Fatalf("committed block = %q", got)
	}
}

func testKeys(t *testing.T, st store.Store) {
	put(t, st, "a/1", "x")
	put(t, st, "a/2", "x")
	put(t, st, "b/1", "x")
	all, err := st.Keys("")
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(all) != 3 {
		t.Fatalf("Keys(\"\") = %v, want 3 keys", all)
	}
	as, err := st.Keys("a/")
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(as) != 2 {
		t.Fatalf("Keys(a/) = %v, want 2 keys", as)
	}
	seen := map[string]bool{}
	for _, k := range as {
		seen[k] = true
	}
	if !seen["a/1"] || !seen["a/2"] {
		t.Fatalf("Keys(a/) = %v", as)
	}
}

func testStats(t *testing.T, st store.Store) {
	if s := st.Stats(); s.Items != 0 || s.Bytes != 0 {
		t.Fatalf("empty Stats = %+v", s)
	}
	put(t, st, "a", "12345")
	put(t, st, "b", "123")
	put(t, st, "a", "12") // overwrite shrinks
	s := st.Stats()
	if s.Items != 2 || s.Bytes != 5 {
		t.Fatalf("Stats = {Items:%d Bytes:%d}, want {2 5}", s.Items, s.Bytes)
	}
	if err := st.Delete("b"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	s = st.Stats()
	if s.Items != 1 || s.Bytes != 2 {
		t.Fatalf("Stats after delete = {Items:%d Bytes:%d}, want {1 2}", s.Items, s.Bytes)
	}
}

func testAwkwardKeys(t *testing.T, st store.Store) {
	// Block keys are arbitrary strings: separators, spaces, percent
	// signs and raw bytes must round-trip through every backend
	// (including URL-escaping ones).
	keys := []string{
		"v/3/blk/00af",
		"with space",
		"percent%2Fliteral",
		"unicode-號",
		"trailing/",
	}
	for i, k := range keys {
		put(t, st, k, fmt.Sprintf("val-%d", i))
	}
	for i, k := range keys {
		if got := get(t, st, k); got != fmt.Sprintf("val-%d", i) {
			t.Fatalf("Get(%q) = %q", k, got)
		}
	}
	all, err := st.Keys("")
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(all) != len(keys) {
		t.Fatalf("Keys = %v, want %d keys", all, len(keys))
	}
}

func testConcurrent(t *testing.T, st store.Store) {
	const workers, per = 8, 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("w%d/k%d", w, i)
				val := fmt.Sprintf("value-%d-%d", w, i)
				if i%2 == 0 {
					if err := st.Put(key, []byte(val)); err != nil {
						t.Errorf("Put(%q): %v", key, err)
						return
					}
				} else {
					bw, err := st.PutWriter(key)
					if err != nil {
						t.Errorf("PutWriter(%q): %v", key, err)
						return
					}
					if err := bw.WriteAt([]byte(val), 0); err != nil {
						t.Errorf("WriteAt(%q): %v", key, err)
						return
					}
					if err := bw.Commit(); err != nil {
						t.Errorf("Commit(%q): %v", key, err)
						return
					}
				}
				got, err := st.Get(key)
				if err != nil || string(got) != val {
					t.Errorf("Get(%q) = %q, %v", key, got, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st2 := st.Stats()
	if want := int64(workers * per); st2.Items != want {
		t.Fatalf("Stats.Items = %d, want %d", st2.Items, want)
	}
	keys, err := st.Keys("w3/")
	if err != nil || len(keys) != per {
		t.Fatalf("Keys(w3/) = %d keys, %v; want %d", len(keys), err, per)
	}
}
