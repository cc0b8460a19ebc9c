// Package storetest is the shared conformance harness for Store
// backends. Every backend — mem, fs — must pass the same
// contract: Run exercises the visibility, clamping, enumeration and
// concurrency semantics the provider and repair planes rely on, so a
// new backend is wired in by writing an opener, not by re-deriving the
// contract from the consumers.
package storetest

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
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
		{"KeyBytes", testKeyBytes},
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

// Holds reports whether st stores key, by the zero-length ReadAt that
// tells a hit from ErrNotFound; any other error fails t.
func Holds(t testing.TB, st store.Store, key string) bool {
	t.Helper()
	_, err := st.ReadAt([]byte(key), nil, 0)
	if err != nil && err != store.ErrNotFound {
		t.Fatalf("ReadAt(%q, nothing): %v", key, err)
	}
	return err == nil
}

func put(t *testing.T, st store.Store, key, val string) {
	t.Helper()
	if err := st.Put(key, []byte(val)); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

// stream opens a writer for key and writes val at 0, uncommitted.
func stream(t *testing.T, st store.Store, key, val string) store.BlockWriter {
	t.Helper()
	w, err := st.PutWriter(key)
	if err == nil {
		err = w.WriteAt([]byte(val), 0)
	}
	if err != nil {
		t.Fatalf("streaming %q: %v", key, err)
	}
	return w
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
	if _, err := st.ReadAt([]byte("missing"), make([]byte, 4), 0); err != store.ErrNotFound {
		t.Fatalf("ReadAt(missing) err = %v, want ErrNotFound", err)
	}
	if Holds(t, st, "missing") {
		t.Fatal("Holds(missing) = true")
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
		n, err := st.ReadAt([]byte("k"), p[:c.length], c.off)
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

// testKeyBytes: ReadAt, and Lend and LendFile where the backend has
// them, take the key as bytes: they find what Put and PutWriter stored,
// miss with ErrNotFound, and keep none of the key, whose buffer a
// provider fills with the next block's.
func testKeyBytes(t *testing.T, st store.Store) {
	put(t, st, "b1/a/0", "put")
	if err := stream(t, st, "b1/a/1", "streamed").Commit(); err != nil {
		t.Fatal(err)
	}
	reads := []func(key []byte) ([]byte, error){func(key []byte) ([]byte, error) {
		p := make([]byte, 16)
		n, err := st.ReadAt(key, p, 0)
		return p[:n], err
	}}
	if l, ok := st.(store.Lender); ok {
		reads = append(reads, func(key []byte) ([]byte, error) { return l.Lend(key, 0, -1) })
	}
	if l, ok := st.(store.FileLender); ok {
		reads = append(reads, func(key []byte) ([]byte, error) {
			f, n, err := l.LendFile(key, 0, -1)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return io.ReadAll(io.NewSectionReader(f, 0, n))
		})
	}
	show := func(v []byte, err error) string {
		if err != nil {
			return err.Error()
		}
		return string(v)
	}
	for i, read := range reads {
		for key, want := range map[string]string{"b1/a/0": "put", "b1/a/1": "streamed", "b1/a/2": store.ErrNotFound.Error()} {
			buf := []byte(key)
			first := show(read(buf))
			clear(buf)
			if again := show(read([]byte(key))); first != want || again != want || show(read(buf)) != store.ErrNotFound.Error() {
				t.Fatalf("read %d of %q = %q, then %q once its key buffer was cleared; want %q", i, key, first, again, want)
			}
		}
	}
	if keys, err := st.Keys(""); err != nil || len(keys) != 2 {
		t.Fatalf("Keys after the reads = %q, %v", keys, err)
	}
}

func testHasDelete(t *testing.T, st store.Store) {
	put(t, st, "k", "v")
	if !Holds(t, st, "k") {
		t.Fatal("Holds(k) = false after Put")
	}
	if err := st.Delete("k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if Holds(t, st, "k") {
		t.Fatal("Holds(k) = true after Delete")
	}
	if _, err := st.Get("k"); err != store.ErrNotFound {
		t.Fatalf("Get after Delete err = %v, want ErrNotFound", err)
	}
}

func testPutWriter(t *testing.T, st store.Store) {
	// Frames land out of order and overlapping; the last write wins.
	w, err := st.PutWriter("k")
	if err == nil {
		err = errors.Join(w.WriteAt([]byte("6789"), 6), w.WriteAt([]byte("012345"), 0), w.WriteAt([]byte("345"), 3), w.Commit())
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := get(t, st, "k"); got != "0123456789" {
		t.Fatalf("assembled block = %q, want 0123456789", got)
	}
}

func testPutWriterInvisible(t *testing.T, st store.Store) {
	w := stream(t, st, "k", "partial")
	if Holds(t, st, "k") {
		t.Fatal("in-flight write visible via ReadAt")
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
	w := stream(t, st, "k", "doomed")
	if err := w.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if Holds(t, st, "k") {
		t.Fatal("aborted write visible")
	}

	// A writer overwriting an existing block must not clobber it before
	// Commit, and the committed value replaces the old one.
	put(t, st, "x", "old")
	w2 := stream(t, st, "x", "new!")
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
	if n, err := st.DeletePrefix("blk/"); err != nil || n != 3 {
		t.Fatalf("DeletePrefix = (%d, %v), want (3, nil)", n, err)
	}
	if Holds(t, st, "blk/2") {
		t.Fatal("prefixed key survived DeletePrefix")
	}
	if !Holds(t, st, "other") {
		t.Fatal("unrelated key removed by DeletePrefix")
	}
	if n, err := st.DeletePrefix("blk/"); err != nil || n != 0 {
		t.Fatalf("second DeletePrefix = (%d, %v), want (0, nil)", n, err)
	}
}

func testDeletePrefixSkipsInFlight(t *testing.T, st store.Store) {
	put(t, st, "blk/done", "x")
	w := stream(t, st, "blk/inflight", "y")
	if n, err := st.DeletePrefix("blk/"); err != nil || n != 1 {
		t.Fatalf("DeletePrefix = (%d, %v), want (1, nil): an in-flight write is not a block", n, err)
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
	as, aerr := st.Keys("a/")
	if slices.Sort(as); err != nil || aerr != nil || len(all) != 3 || !slices.Equal(as, []string{"a/1", "a/2"}) {
		t.Fatalf("Keys(\"\") = %v, %v; Keys(a/) = %v, %v; want 3 keys, then a/1 and a/2", all, err, as, aerr)
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
	if all, err := st.Keys(""); err != nil || len(all) != len(keys) {
		t.Fatalf("Keys = %v, %v; want %d keys", all, err, len(keys))
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
