package store

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestStreamWriterOutOfOrderFrames(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			want := []byte("0123456789abcdef")
			w, err := s.PutWriter("k")
			if err != nil {
				t.Fatal(err)
			}
			// Frames land out of order, as pipelined RPCs may.
			for _, fr := range []struct{ off, end int }{{8, 16}, {0, 4}, {4, 8}} {
				if err := w.WriteAt(want[fr.off:fr.end], int64(fr.off)); err != nil {
					t.Fatal(err)
				}
			}
			// Invisible until commit.
			if holds(t, s, "k") {
				t.Fatal("uncommitted stream visible")
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("k")
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Get = %q, %v", got, err)
			}
			// Writer is spent.
			if err := w.WriteAt([]byte("x"), 0); err == nil {
				t.Error("write after commit succeeded")
			}
			if err := w.Commit(); err == nil {
				t.Error("double commit succeeded")
			}
		})
	}
}

func TestStreamWriterAbort(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			w, err := s.PutWriter("k")
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WriteAt([]byte("partial"), 0); err != nil {
				t.Fatal(err)
			}
			if err := w.Abort(); err != nil {
				t.Fatal(err)
			}
			if holds(t, s, "k") {
				t.Error("aborted stream visible")
			}
			if st := s.Stats(); st.Items != 0 || st.Bytes != 0 {
				t.Errorf("aborted stream counted in stats: %+v", st)
			}
			if err := w.WriteAt([]byte("x"), 0); err == nil {
				t.Error("write after abort succeeded")
			}
			if err := w.Abort(); err != nil {
				t.Errorf("double abort errored: %v", err)
			}
		})
	}
}

func TestStreamWriterReplacesAndCoexists(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if err := s.Put("k", []byte("old")); err != nil {
				t.Fatal(err)
			}
			// Two concurrent writers for the same key must not trample
			// each other's frames; last commit wins.
			w1, err := s.PutWriter("k")
			if err != nil {
				t.Fatal(err)
			}
			w2, err := s.PutWriter("k")
			if err != nil {
				t.Fatal(err)
			}
			if err := w1.WriteAt([]byte("first"), 0); err != nil {
				t.Fatal(err)
			}
			if err := w2.WriteAt([]byte("second"), 0); err != nil {
				t.Fatal(err)
			}
			if err := w1.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := w2.Commit(); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("k")
			if err != nil || string(got) != "second" {
				t.Fatalf("Get = %q, %v", got, err)
			}
			if st := s.Stats(); st.Items != 1 {
				t.Errorf("items = %d, want 1", st.Items)
			}
		})
	}
}

func TestStreamWriterUncommittedInvisibleToPrefixOps(t *testing.T) {
	for name, s := range engines(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			w, err := s.PutWriter("b1/aa/0")
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WriteAt([]byte("inflight"), 0); err != nil {
				t.Fatal(err)
			}
			// An in-flight stream is not an item: GC by prefix must not
			// count or disturb it.
			n, err := s.DeletePrefix("b1/aa/")
			if err != nil || n != 0 {
				t.Fatalf("DeletePrefix = %d, %v", n, err)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			if !holds(t, s, "b1/aa/0") {
				t.Error("commit after unrelated DeletePrefix lost the value")
			}
		})
	}
}

func TestFSStoreSweepsOrphanedTempFilesOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFSStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("kept", []byte("v")); err != nil {
		t.Fatal(err)
	}
	w, err := s.PutWriter("orphan")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAt([]byte("partial"), 0); err != nil {
		t.Fatal(err)
	}
	s.Close() // "crash": the writer never commits or aborts

	s2, err := NewFSStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !holds(t, s2, "kept") {
		t.Error("committed value lost across reopen")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("orphaned temp file %s survived reopen", e.Name())
		}
	}
}
