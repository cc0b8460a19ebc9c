package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"blobseer/internal/blob"
	"blobseer/internal/dht"
	"blobseer/internal/mdtree"
	"blobseer/internal/rpc"
	"blobseer/internal/store"
)

// rpcCount is what one operation costs a client on the wire: the calls
// it makes to each service, and how many round trips it waits out one
// after another (calls made side by side count once).
type rpcCount struct {
	vm, pm, prov, meta int
	seq                int
}

func (c rpcCount) String() string {
	return fmt.Sprintf("vmanager %d, pmanager %d, provider %d, metadata %d; %d in sequence", c.vm, c.pm, c.prov, c.meta, c.seq)
}

// callCounter is the counting transport of TestRPCsPerOperation: the
// client's connections report every request frame they write and every
// response header they read. While armed it counts the requests per
// service and gives each a depth — one more than the deepest response
// read before it was sent — and holds every response back until
// answerDelay after its request, so that calls a client makes side by
// side have all been sent before the first answer lets anything go on.
type callCounter struct {
	mu    sync.Mutex
	armed bool
	got   rpcCount
	done  int // the deepest response read so far
}

const answerDelay = 20 * time.Millisecond

func (c *callCounter) arm() {
	c.mu.Lock()
	c.armed, c.got, c.done = true, rpcCount{}, 0
	c.mu.Unlock()
}

func (c *callCounter) disarm() rpcCount {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = false
	return c.got
}

// dial wraps a connection to the service at addr.
func (c *callCounter) dial(d *miniDeploy) rpc.Dialer {
	return func(addr string) (net.Conn, error) {
		conn, err := d.net.Dial(addr)
		if err != nil {
			return nil, err
		}
		return &countedConn{Conn: conn, c: c, service: strings.TrimRight(addr, "-0123456789"), sent: map[uint64]sentCall{}}, nil
	}
}

type sentCall struct {
	depth int
	at    time.Time
}

// countedConn finds the frames in the byte streams: a frame starts with
// its length, and its first write and its first 17 bytes read hold the
// rpc header (request or response id at offset 4).
type countedConn struct {
	net.Conn
	c       *callCounter
	service string

	mu    sync.Mutex
	sent  map[uint64]sentCall // armed requests not yet answered
	wLeft int                 // bytes of the frame being written still to come
	rLeft int                 // bytes of the frame being read still to come
	rHead []byte              // the response header read so far
}

const frameHeader = 4 + 13 // length prefix, then id, method, flags, status

func (cc *countedConn) Write(p []byte) (int, error) {
	cc.mu.Lock()
	for q := p; len(q) > 0; {
		if cc.wLeft == 0 {
			cc.wLeft = 4 + int(binary.BigEndian.Uint32(q))
			cc.request(binary.BigEndian.Uint64(q[4:]))
		}
		k := min(cc.wLeft, len(q))
		cc.wLeft -= k
		q = q[k:]
	}
	cc.mu.Unlock()
	return cc.Conn.Write(p)
}

func (cc *countedConn) request(id uint64) {
	c := cc.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.armed {
		return
	}
	switch cc.service {
	case "vmanager":
		c.got.vm++
	case "pmanager":
		c.got.pm++
	case "provider":
		c.got.prov++
	case "meta":
		c.got.meta++
	}
	cc.sent[id] = sentCall{depth: c.done + 1, at: time.Now()}
}

// Read holds a response back until answerDelay after its request, then
// records its depth as reached, before the client sees a byte of it.
func (cc *countedConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	for _, call := range cc.answers(p[:n]) {
		time.Sleep(time.Until(call.at.Add(answerDelay)))
		c := cc.c
		c.mu.Lock()
		if c.armed {
			c.done = max(c.done, call.depth)
			c.got.seq = max(c.got.seq, call.depth)
		}
		c.mu.Unlock()
	}
	return n, err
}

// answers returns the armed requests whose response headers end in p.
func (cc *countedConn) answers(p []byte) []sentCall {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	var out []sentCall
	for len(p) > 0 {
		if cc.rLeft == 0 { // a header, perhaps in pieces
			k := min(frameHeader-len(cc.rHead), len(p))
			cc.rHead, p = append(cc.rHead, p[:k]...), p[k:]
			if len(cc.rHead) < frameHeader {
				break
			}
			cc.rLeft = int(binary.BigEndian.Uint32(cc.rHead)) - 13
			id := binary.BigEndian.Uint64(cc.rHead[4:])
			if call, ok := cc.sent[id]; ok {
				delete(cc.sent, id)
				out = append(out, call)
			}
			cc.rHead = cc.rHead[:0]
			continue
		}
		k := min(cc.rLeft, len(p))
		cc.rLeft -= k
		p = p[k:]
	}
	return out
}

// TestRPCsPerOperation pins what each kind of operation costs a client in
// calls to every service and in round trips one after another, on a
// deployment with four data providers and two metadata providers. A change
// that moves a call shows here as one number.
func TestRPCsPerOperation(t *testing.T) {
	const bs = pinBS
	d := startMini(t, 4, mdtree.NewMemStore())
	var metaAddrs []string
	for i := 0; i < 2; i++ {
		addr := fmt.Sprintf("meta-%d", i)
		lis, err := d.net.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer(dht.NewMetaService(store.NewMemStore()).Mux())
		go srv.Serve(lis)
		t.Cleanup(func() { srv.Close() })
		metaAddrs = append(metaAddrs, addr)
	}
	ring := dht.NewRing(metaAddrs, 0)
	metaOver := func(pool *rpc.Pool) mdtree.Store { return mdtree.NewDHTStore(dht.NewClient(ring, pool, 1)) }
	var counter callCounter
	newClient := func(counted bool) *Client {
		pool := rpc.NewPool(d.net.Dial)
		if counted {
			pool = rpc.NewPool(counter.dial(d))
		}
		t.Cleanup(pool.Close)
		return NewClient(Config{Pool: pool, VMAddrs: []string{d.vmAddr}, PMAddr: d.pmAddr, MetaStore: metaOver(pool)})
	}
	ctx := context.Background()
	setup := newClient(false)
	c := newClient(true)

	// A blob of 16 blocks dealt round robin over the 4 providers, then
	// 100 one-block appends that no client builds trees for: versions
	// only, which an append-mode writer that pins nothing never reads.
	data := make([]byte, 16*bs)
	for i := range data {
		data[i] = byte(i*7 + i/int(bs))
	}
	sb, err := setup.CreateBlob(ctx, bs, 1)
	if err != nil {
		t.Fatal(err)
	}
	v16, err := sb.Append(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.OpenBlob(ctx, sb.ID())
	if err != nil {
		t.Fatal(err)
	}
	vm := d.vm.State()
	for i := 0; i < 100; i++ {
		a, err := vm.AssignVersion(b.ID(), blob.KindAppend, 0, bs, uint64(1000+i), blob.NoVersion)
		if err == nil {
			err = vm.Commit(b.ID(), a.Version)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	ub, err := setup.CreateBlob(ctx, bs, 1) // for the unaligned append
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ub.Append(ctx, blocksOf('u')[:bs/2]); err != nil {
		t.Fatal(err)
	}
	unaligned, err := c.OpenBlob(ctx, ub.ID())
	if err != nil {
		t.Fatal(err)
	}

	// A client whose first contact with the blob is the stream below,
	// pinned before anything is counted, as a fresh map task is.
	fresh, err := newClient(true).OpenBlob(ctx, sb.ID())
	if err != nil {
		t.Fatal(err)
	}
	freshPin, err := fresh.Snapshot(ctx, v16)
	if err != nil {
		t.Fatal(err)
	}

	var pinned *Snapshot
	got := make([]byte, len(data))
	readBack := func() error {
		clear(got)
		if _, err := pinned.ReadAtContext(ctx, got, 0); err != nil && err != io.EOF {
			return err
		}
		if !bytes.Equal(got, data) {
			return fmt.Errorf("read back other bytes than written")
		}
		return nil
	}
	rows := []struct {
		name string
		op   func() error
		want rpcCount
	}{{
		// Placement, the blocks side by side, the version, the tree's
		// nodes on each metadata provider side by side, the commit.
		name: "write_of_4_blocks",
		op: func() error {
			_, err := b.Write(ctx, 0, data[:4*bs])
			return err
		},
		want: rpcCount{vm: 2, pm: 1, prov: 4, meta: 2, seq: 5},
	}, {
		// An append-mode writer asks the blob's size; onto an aligned end
		// it pins nothing, and the append is a plain one, whatever the
		// versions before it.
		name: "aligned_append",
		op: func() error {
			w := b.NewWriter(ctx, WriterOptions{Append: true})
			if _, err := w.Write(blocksOf('z')); err != nil {
				return err
			}
			if err := w.Close(); err != nil {
				return err
			}
			if through := c.state(b.ID()).owners.Through(); through != 0 {
				return fmt.Errorf("the writer indexed the blob through version %d, want nothing pinned", through)
			}
			return nil
		},
		want: rpcCount{vm: 3, pm: 1, prov: 1, meta: 2, seq: 6},
	}, {
		// Onto a half block: the size, the pin, the tail, then the merged
		// block goes out as an aligned write.
		name: "unaligned_append",
		op: func() error {
			w := unaligned.NewWriter(ctx, WriterOptions{Append: true})
			if _, err := w.Write(blocksOf('v')[:bs/2]); err != nil {
				return err
			}
			return w.Close()
		},
		want: rpcCount{vm: 4, pm: 1, prov: 2, meta: 1, seq: 8},
	}, {
		// An older version: one reply brings the descriptors published
		// since the client's last pin, the version's size and the prune
		// point, which says it was not garbage-collected.
		name: "pin",
		op: func() error {
			pinned, err = b.Snapshot(ctx, v16)
			return err
		},
		want: rpcCount{vm: 1, seq: 1},
	}, {
		// Waiting for a version already published pins it with the
		// same one reply.
		name: "wait_published",
		op: func() error {
			s, err := b.WaitPublished(ctx, v16, time.Second)
			if err == nil && (s.Version() != v16 || s.Size() != 16*bs) {
				err = fmt.Errorf("waited for v%d, pinned v%d of %d bytes", v16, s.Version(), s.Size())
			}
			return err
		},
		want: rpcCount{vm: 1, seq: 1},
	}, {
		// The pin named every block's replicas: each provider once for
		// all four of its blocks, side by side, and no metadata call.
		name: "cold_read_of_16_blocks_over_4_providers",
		op:   readBack,
		want: rpcCount{prov: 4, seq: 1},
	}, {
		name: "warm_read",
		op:   readBack,
		want: rpcCount{prov: 4, seq: 1},
	}, {
		// Each block is one call to its provider, the fetch and its two
		// of readahead at a time: ceil(16/3) in sequence, and no
		// metadata call.
		name: "cold_stream_of_16_blocks",
		op: func() error {
			r := freshPin.NewReader(ctx, ReaderOptions{Readahead: 2})
			defer r.Close()
			streamed, err := io.ReadAll(r)
			if err != nil {
				return err
			}
			if !bytes.Equal(streamed, data) {
				return fmt.Errorf("streamed other bytes than written")
			}
			return nil
		},
		want: rpcCount{prov: 16, seq: 6},
	}}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			counter.arm()
			err := row.op()
			got := counter.disarm()
			if err != nil {
				t.Fatal(err)
			}
			if got != row.want {
				t.Errorf("costs %v; want %v", got, row.want)
			}
		})
	}

	// The aligned append landed after the 100 appended versions.
	s, err := b.Latest(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tail := make([]byte, bs)
	if _, err := s.ReadAt(tail, s.Size()-bs); (err != nil && err != io.EOF) || !bytes.Equal(tail, blocksOf('z')) || s.Size() != 117*bs {
		t.Errorf("the append-mode writer's block did not land after the 100 appended ones (size %d, err %v)", s.Size(), err)
	}
}
