package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"testing"
)

// engines returns a fresh instance of every Store implementation.
func engines(t *testing.T) map[string]Store {
	t.Helper()
	fss, err := NewFSStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem": NewMemStore(),
		"fs":  fss,
	}
}

func TestStoreKeys(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			keys, err := s.Keys("")
			if err != nil || len(keys) != 0 {
				t.Fatalf("Keys on empty store = %v, %v", keys, err)
			}
			for _, k := range []string{"b1/a/0", "b1/a/1", "b2/ff/0", "t1/2/0/4"} {
				if err := s.Put(k, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			all, err := s.Keys("")
			if err != nil {
				t.Fatal(err)
			}
			sort.Strings(all)
			want := []string{"b1/a/0", "b1/a/1", "b2/ff/0", "t1/2/0/4"}
			if fmt.Sprint(all) != fmt.Sprint(want) {
				t.Errorf("Keys(\"\") = %v, want %v", all, want)
			}
			blocks, err := s.Keys("b1/a/")
			if err != nil || len(blocks) != 2 {
				t.Errorf("Keys(prefix) = %v, %v", blocks, err)
			}
			// In-flight streaming writes are invisible until Commit.
			w, err := s.PutWriter("b9/9/0")
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WriteAt([]byte("partial"), 0); err != nil {
				t.Fatal(err)
			}
			inflight, _ := s.Keys("b9/")
			if len(inflight) != 0 {
				t.Errorf("in-flight streaming write visible in Keys: %v", inflight)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			committed, _ := s.Keys("b9/")
			if len(committed) != 1 {
				t.Errorf("committed key missing from Keys: %v", committed)
			}
		})
	}
}

func TestStoreBasics(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if holds(t, s, "k") {
				t.Error("fresh store has key")
			}
			if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
				t.Errorf("Get missing = %v", err)
			}
			if err := s.Put("k", []byte("value-1")); err != nil {
				t.Fatal(err)
			}
			v, err := s.Get("k")
			if err != nil || string(v) != "value-1" {
				t.Fatalf("Get = %q, %v", v, err)
			}
			// Overwrite.
			if err := s.Put("k", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			v, _ = s.Get("k")
			if string(v) != "v2" {
				t.Errorf("overwrite failed: %q", v)
			}
			if err := s.Delete("k"); err != nil {
				t.Fatal(err)
			}
			if holds(t, s, "k") {
				t.Error("key survives delete")
			}
			if err := s.Delete("k"); err != nil {
				t.Errorf("double delete errored: %v", err)
			}
		})
	}
}

func TestStoreGetRange(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			data := []byte("0123456789")
			if err := s.Put("k", data); err != nil {
				t.Fatal(err)
			}
			cases := []struct {
				off, length int64
				want        string
			}{
				{0, 10, "0123456789"},
				{0, -1, "0123456789"},
				{3, 4, "3456"},
				{8, 100, "89"}, // clamped
				{10, 5, ""},    // at end
				{20, 5, ""},    // past end
				{-2, 3, "012"}, // negative off clamped to 0
			}
			for _, c := range cases {
				got, err := s.GetRange("k", c.off, c.length)
				if err != nil {
					t.Fatalf("GetRange(%d,%d): %v", c.off, c.length, err)
				}
				if string(got) != c.want {
					t.Errorf("GetRange(%d,%d) = %q, want %q", c.off, c.length, got, c.want)
				}
			}
			if _, err := s.GetRange("missing", 0, 1); !errors.Is(err, ErrNotFound) {
				t.Errorf("missing GetRange err = %v", err)
			}
		})
	}
}

func TestStoreDeletePrefix(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			keys := []string{"b1/aa/0", "b1/aa/1", "b1/ab/0", "b2/aa/0"}
			for _, k := range keys {
				if err := s.Put(k, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			n, err := s.DeletePrefix("b1/aa/")
			if err != nil {
				t.Fatal(err)
			}
			if n != 2 {
				t.Errorf("deleted %d, want 2", n)
			}
			if holds(t, s, "b1/aa/0") || holds(t, s, "b1/aa/1") {
				t.Error("prefixed keys survive")
			}
			if !holds(t, s, "b1/ab/0") || !holds(t, s, "b2/aa/0") {
				t.Error("unrelated keys deleted")
			}
		})
	}
}

func TestStoreStats(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if st := s.Stats(); st.Items != 0 || st.Bytes != 0 {
				t.Errorf("fresh stats = %+v", st)
			}
			s.Put("a", make([]byte, 100))
			s.Put("b", make([]byte, 50))
			st := s.Stats()
			if st.Items != 2 || st.Bytes != 150 {
				t.Errorf("stats = %+v", st)
			}
		})
	}
}

func TestStoreValueIsolation(t *testing.T) {
	// Mutating caller buffers after Put / after Get must not corrupt
	// stored data.
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			buf := []byte("immutable")
			if err := s.Put("k", buf); err != nil {
				t.Fatal(err)
			}
			buf[0] = 'X'
			v, _ := s.Get("k")
			if string(v) != "immutable" {
				t.Fatalf("Put aliased caller buffer: %q", v)
			}
			v[0] = 'Y'
			v2, _ := s.Get("k")
			if string(v2) != "immutable" {
				t.Fatalf("Get aliased stored buffer: %q", v2)
			}
		})
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						k := fmt.Sprintf("g%d/k%d", g, i)
						if err := s.Put(k, []byte(k)); err != nil {
							t.Error(err)
							return
						}
						v, err := s.Get(k)
						if err != nil || !bytes.Equal(v, []byte(k)) {
							t.Errorf("get %s = %q, %v", k, v, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if st := s.Stats(); st.Items != 400 {
				t.Errorf("items = %d, want 400", st.Items)
			}
		})
	}
}

func TestFSStoreBinaryKeysAndPersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	key := string([]byte{0, 1, '/', 0xff, 'x'})
	if err := s.Put(key, []byte("bin")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Reopen and read back.
	s2, err := NewFSStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, err := s2.Get(key)
	if err != nil || string(v) != "bin" {
		t.Fatalf("reopened Get = %q, %v", v, err)
	}
}

// TestMemShardPlacement pins the inlined shard hash to hash/fnv's
// FNV-1a, so keys stay in the shards earlier builds put them in, and
// pins that reading a key given as bytes allocates nothing.
func TestMemShardPlacement(t *testing.T) {
	s := NewMemStore()
	for _, key := range []string{"", "a", "b1/2/3", "t7/9/0/4096", "blöb\x00key"} {
		h := fnv.New32a()
		h.Write([]byte(key))
		if got, want := shard(s, key), &s.shards[h.Sum32()%memShards]; got != want {
			t.Errorf("shard(%q) moved", key)
		}
		if got, want := shard(s, []byte(key)), shard(s, key); got != want {
			t.Errorf("shard(%q) differs between the key's bytes and its string", key)
		}
	}
	key := []byte("b1844674407/fedcba9876543210/4294967295") // longer than a string converts on the stack
	s.Put(string(key), []byte("v"))
	if n := testing.AllocsPerRun(100, func() { s.ReadAt(key, make([]byte, 1), 0); s.Lend(key, 0, -1) }); n != 0 {
		t.Errorf("ReadAt and Lend allocate %v times per call", n)
	}
}

// holds reports whether s stores key, by a zero-length ReadAt.
func holds(t *testing.T, s Store, key string) bool {
	t.Helper()
	_, err := s.ReadAt([]byte(key), nil, 0)
	if err != nil && err != ErrNotFound {
		t.Fatalf("ReadAt(%q, nothing): %v", key, err)
	}
	return err == nil
}

// TestLendFileAllocs pins what lending a block's file allocates: its path
// once, the system call's NUL-ended copy of it, and the open file (two
// objects). Seven before the path was built in one piece and the size
// read without a Stat.
func TestLendFileAllocs(t *testing.T) {
	s, err := NewFSStore(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b1/7f/3", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	key := []byte("b1/7f/3")
	lend := func() {
		f, n, err := s.LendFile(key, 2, 100)
		if err != nil || n != 8 {
			t.Fatalf("LendFile = %d, %v; want 8 bytes", n, err)
		}
		f.Close()
	}
	if n := testing.AllocsPerRun(100, lend); n > 4 {
		t.Errorf("LendFile allocates %v times per call, want at most 4", n)
	}
}
