package wire

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

func TestChunkRoundTrip(t *testing.T) {
	chunks := []Chunk{
		{Off: 0, Total: 10, Data: []byte("01234")},
		{Off: 5, Total: 10, Data: []byte("56789")},
		{Off: 0, Total: 1, Data: []byte("x")},
	}
	wantLast := []bool{false, true, true}
	for i, want := range chunks {
		b := NewBuffer(64)
		b.Chunk(want) // the data rides as the tail: a transport sends it after the body
		if len(b.Tail()) != len(want.Data) || &b.Tail()[0] != &want.Data[0] {
			t.Errorf("chunk %d: the data was copied, want it by reference", i)
		}
		r := NewReader(append(b.Bytes(), b.Tail()...))
		got := r.Chunk()
		if got.Off != want.Off || got.Total != want.Total ||
			!bytes.Equal(got.Data, want.Data) {
			t.Errorf("chunk %d = %+v, want %+v", i, got, want)
		}
		if got.Last() != wantLast[i] {
			t.Errorf("chunk %d Last() = %v, want %v", i, got.Last(), wantLast[i])
		}
		if r.Err() != nil || r.Remaining() != 0 {
			t.Errorf("chunk %d: decode error %v, %d bytes left", i, r.Err(), r.Remaining())
		}
	}
}

func TestChunkTruncated(t *testing.T) {
	b := NewBuffer(32)
	b.Chunk(Chunk{Off: 0, Total: 4, Data: []byte("full")})
	enc := append(b.Bytes(), b.Tail()...)
	for cut := 1; cut < len(enc); cut++ {
		r := NewReader(enc[:cut])
		r.Chunk()
		if r.Err() == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

// TestTailEndsTheBody: nothing is encoded after a tail (a second tail
// would replace the first, anything else would land before its bytes on
// the wire); an empty tail and a Reset lift the rule.
func TestTailEndsTheBody(t *testing.T) {
	after := map[string]func(*Buffer){
		"U8":      func(b *Buffer) { b.U8(1) },
		"I64":     func(b *Buffer) { b.I64(1) },
		"Bytes32": func(b *Buffer) { b.Bytes32(nil) },
		"String":  func(b *Buffer) { b.String("s") },
		"Extend":  func(b *Buffer) { b.Extend(0) },
		"Tail32":  func(b *Buffer) { b.Tail32([]byte("again")) },
		"Chunk":   func(b *Buffer) { b.Chunk(Chunk{Data: []byte("c")}) },
	}
	for name, encode := range after {
		b := NewBuffer(16)
		b.Tail32([]byte("tail"))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Tail32 did not panic", name)
				}
			}()
			encode(b)
		}()
		b.Reset()
		b.Tail32(nil)
		encode(b) // must not panic
	}
}

// TestAttachFile: a file tail follows the slices and ends the frame —
// neither an encode nor an Attach may follow it — and the frame closes
// the file when it is released or reset, sent or not.
func TestAttachFile(t *testing.T) {
	for _, release := range []bool{true, false} {
		f, err := os.Open(os.DevNull)
		if err != nil {
			t.Fatal(err)
		}
		b := NewFrame(8, 8)
		b.U32(3)
		b.Attach([]byte("one"))
		b.AttachFile(f, 5, 7)
		if got := b.Files(); len(got) != 1 || got[0] != (FileTail{F: f, Off: 5, N: 7}) || len(b.AppendTails(nil)) != 1 {
			t.Fatalf("file tails %v after one slice and one file", got)
		}
		for name, after := range map[string]func(){"U8": func() { b.U8(1) }, "Attach": func() { b.Attach([]byte("x")) }} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s after AttachFile did not panic", name)
					}
				}()
				after()
			}()
		}
		if release {
			b.Release()
		} else {
			b.Reset()
			defer b.Release()
		}
		if err := f.Close(); !errors.Is(err, os.ErrClosed) || len(b.files) != 0 {
			t.Errorf("release=%v: the file was not closed with the frame (Close = %v)", release, err)
		}
	}
}

// TestAttachKeepsOrder: the slices attached after a body come back in
// the order attached, empty ones dropped, and Release and Reset let go
// of every one. A released frame is dead, so what it kept shows in the
// frame NewFrame hands out next: the same Buffer, the free list being a
// stack.
func TestAttachKeepsOrder(t *testing.T) {
	for _, release := range []bool{true, false} {
		for round := 0; round < 2; round++ { // the second reuses the kept vector
			b := NewFrame(8, 8)
			b.U32(3)
			for _, p := range []string{"one", "", "two", "three"} {
				b.Attach([]byte(p))
			}
			var got []string
			for _, p := range b.AppendTails(nil) {
				got = append(got, string(p))
			}
			if strings.Join(got, ",") != "one,two,three" {
				t.Fatalf("attached one, (empty), two, three; AppendTails = %q", got)
			}
			if release {
				b.Release()
				if next := NewFrame(8, 8); next != b {
					t.Fatal("the frame released last was not the next one handed out")
				}
			} else {
				b.Reset()
			}
			if b.Tail() != nil || len(b.AppendTails(nil)) != 0 || cap(b.tails) < 3 {
				t.Fatalf("release=%v: tails %d (vector of %d) after the frame was let go of, want none in a kept vector", release, len(b.tails), cap(b.tails))
			}
			b.Release()
		}
	}
}
