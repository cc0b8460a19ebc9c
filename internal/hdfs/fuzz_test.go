package hdfs

import (
	"context"
	"fmt"
	"testing"

	"blobseer/internal/placement"
	"blobseer/internal/wire"
)

// FuzzNamenodeRequests sends each payload to every namenode method's
// handler, on a namenode with two registered datanodes and one open file
// ("/d/f", lease "L") holding one completed block. A handler must not
// panic, and must either fail or answer a reply that decodes whole, as
// NNClient reads it.
func FuzzNamenodeRequests(f *testing.F) {
	req := func(enc func(b *wire.Buffer)) []byte {
		b := wire.NewBuffer(64)
		enc(b)
		return b.Bytes()
	}
	f.Add(req(func(b *wire.Buffer) { b.String("dn-2:1"); b.String("host-2") }))
	f.Add(req(func(b *wire.Buffer) { b.String("/d/g"); b.Bool(true); b.String("L") }))
	f.Add(req(func(b *wire.Buffer) { b.U64(1); b.String("L"); b.String("host-0"); b.U32(2) }))
	f.Add(req(func(b *wire.Buffer) { b.U64(1); b.String("L"); b.U64(1); b.I64(4096) }))
	f.Add(req(func(b *wire.Buffer) { b.U64(1); b.String("L") }))
	f.Add(req(func(b *wire.Buffer) { b.String("/d/f"); b.I64(0); b.I64(-1) }))
	f.Add(req(func(b *wire.Buffer) { b.String("/d/f"); b.I64(1 << 62); b.I64(1 << 62) })) // off+len overflows
	f.Add(req(func(b *wire.Buffer) { b.String("/d") }))
	f.Add(req(func(b *wire.Buffer) { b.String("/d/f"); b.Bool(true) }))
	f.Add(req(func(b *wire.Buffer) { b.String("/d/f"); b.String("/e/f") }))
	f.Add(req(func(b *wire.Buffer) { b.String("/"); b.String("/d/x") }))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, '/'}) // a string claiming 4 GB
	f.Add([]byte{})

	// decodes reports whether a reply reads whole: nothing for the
	// methods that answer only success, what NNClient decodes otherwise.
	status := func(r *wire.Reader) { decodeStatus(r) }
	decodes := map[uint16]func(r *wire.Reader){
		mRegisterDatanode: nil,
		mCreate:           func(r *wire.Reader) { r.U64() },
		mAddBlock:         func(r *wire.Reader) { r.U64(); r.StringSlice() },
		mCompleteBlock:    nil,
		mCompleteFile:     nil,
		mGetBlockLocations: func(r *wire.Reader) {
			r.I64()
			for n := r.U32(); n > 0 && r.Err() == nil; n-- {
				r.U64()
				r.I64()
				r.I64()
				r.StringSlice()
				r.StringSlice()
			}
		},
		mStat: status,
		mList: func(r *wire.Reader) {
			for n := r.U32(); n > 0 && r.Err() == nil; n-- {
				status(r)
			}
		},
		mMkdirs: nil,
		mDelete: nil,
		mRename: nil,
	}
	if len(decodes) != int(mRename) {
		f.Fatalf("%d methods checked, the namenode has %d", len(decodes), mRename)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		s := NewService(NewNamenode(4096, placement.NewRoundRobin()))
		if err := seedNamenode(s.nn); err != nil {
			t.Fatal(err)
		}
		handlers := map[uint16]func(context.Context, []byte) (*wire.Buffer, error){
			mRegisterDatanode:  s.handleRegister,
			mCreate:            s.handleCreate,
			mAddBlock:          s.handleAddBlock,
			mCompleteBlock:     s.handleCompleteBlock,
			mCompleteFile:      s.handleCompleteFile,
			mGetBlockLocations: s.handleGetBlockLocations,
			mStat:              s.handleStat,
			mList:              s.handleList,
			mMkdirs:            s.handleMkdirs,
			mDelete:            s.handleDelete,
			mRename:            s.handleRename,
		}
		for m := mRegisterDatanode; m <= mRename; m++ {
			out, err := handlers[m](context.Background(), payload)
			if err != nil || out == nil {
				if err == nil && decodes[m] != nil {
					t.Fatalf("method %d answered nothing, want a reply", m)
				}
				continue
			}
			if decodes[m] == nil {
				t.Fatalf("method %d answered %d bytes, want none", m, out.Len())
			}
			r := wire.NewReader(out.Bytes())
			decodes[m](r)
			if r.Err() != nil || r.Remaining() != 0 {
				t.Fatalf("method %d's reply does not decode: %v, %d bytes left", m, r.Err(), r.Remaining())
			}
			out.Release()
		}
	})
}

// seedNamenode registers two datanodes and leaves "/d/f" open under
// lease "L" with one completed block.
func seedNamenode(nn *Namenode) error {
	nn.RegisterDatanode("dn-0:1", "host-0")
	nn.RegisterDatanode("dn-1:1", "host-1")
	id, err := nn.Create("/d/f", false, "L")
	if err != nil {
		return err
	}
	bid, addrs, err := nn.AddBlock(id, "L", "host-0", 2)
	if err != nil {
		return err
	}
	if len(addrs) != 2 {
		return fmt.Errorf("block placed on %v, want two datanodes", addrs)
	}
	return nn.CompleteBlock(id, "L", bid, 4096)
}
