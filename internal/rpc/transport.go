package rpc

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"blobseer/internal/wire"
)

// Dialer opens a connection to an address. Deployments use TCPDialer;
// tests and embedded clusters use an InprocNetwork's Dial.
type Dialer func(addr string) (net.Conn, error)

// TCPDialer dials real TCP addresses.
func TCPDialer(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// ListenTCP opens a TCP listener on addr ("host:0" picks a free port).
func ListenTCP(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// InprocNetwork is an in-process transport: named listeners connected
// through net.Pipe. It lets a whole BlobSeer deployment (version
// manager, providers, namespace manager, trackers...) run inside one
// test binary with the exact same RPC code paths as a TCP deployment.
type InprocNetwork struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
}

// NewInprocNetwork returns an empty in-process network.
func NewInprocNetwork() *InprocNetwork {
	return &InprocNetwork{listeners: make(map[string]*inprocListener)}
}

// Listen registers a named endpoint. Addresses are free-form strings
// (daemons use "role-N" style names).
func (n *InprocNetwork) Listen(addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("inproc: address %q already in use", addr)
	}
	l := &inprocListener{
		net:    n,
		addr:   addr,
		accept: make(chan net.Conn),
		done:   make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to a named endpoint.
func (n *InprocNetwork) Dial(addr string) (net.Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("inproc: connection refused: %q", addr)
	}
	client, server := net.Pipe()
	select {
	case l.accept <- server:
		return client, nil
	case <-l.done:
		return nil, fmt.Errorf("inproc: connection refused: %q", addr)
	}
}

func (n *InprocNetwork) remove(addr string) {
	n.mu.Lock()
	delete(n.listeners, addr)
	n.mu.Unlock()
}

type inprocListener struct {
	net    *InprocNetwork
	addr   string
	accept chan net.Conn
	done   chan struct{}
	once   sync.Once
}

func (l *inprocListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.remove(l.addr)
	})
	return nil
}

func (l *inprocListener) Addr() net.Addr { return inprocAddr(l.addr) }

type inprocAddr string

func (a inprocAddr) Network() string { return "inproc" }
func (a inprocAddr) String() string  { return string(a) }

// Pool caches one Client per address and redials transparently when a
// connection breaks. All BlobSeer client-side components share a Pool so
// that e.g. 250 concurrent readers multiplex over one connection per
// provider, as the C++ implementation does.
type Pool struct {
	dial    Dialer
	timeout time.Duration // per-call I/O deadline applied to new clients

	mu      sync.Mutex
	clients map[string]*Client
}

// NewPool returns a Pool using dial for new connections.
func NewPool(dial Dialer) *Pool {
	return &Pool{dial: dial, clients: make(map[string]*Client)}
}

// SetCallTimeout applies a per-call I/O deadline to every client the
// pool hands out (existing pooled clients included): see
// Client.SetIOTimeout. 0 disables — the historical behavior, where a
// hung peer blocks its callers forever.
func (p *Pool) SetCallTimeout(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.timeout = d
	for _, c := range p.clients {
		c.SetIOTimeout(d)
	}
}

// Get returns a live client for addr, dialing if needed.
func (p *Pool) Get(addr string) (*Client, error) {
	p.mu.Lock()
	if c, ok := p.clients[addr]; ok {
		c.mu.Lock()
		healthy := c.err == nil
		c.mu.Unlock()
		if healthy {
			p.mu.Unlock()
			return c, nil
		}
		delete(p.clients, addr)
	}
	p.mu.Unlock()

	conn, err := p.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	c := NewClient(conn)
	p.mu.Lock()
	c.SetIOTimeout(p.timeout)
	p.mu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	if existing, ok := p.clients[addr]; ok {
		existing.mu.Lock()
		healthy := existing.err == nil
		existing.mu.Unlock()
		if healthy { // lost the race; keep the established one
			go c.Close()
			return existing, nil
		}
	}
	p.clients[addr] = c
	return c, nil
}

// SameHost reports whether addr's peer runs on this host, as its
// connection (dialled if need be) shows: an in-process pipe (an
// InprocNetwork's), or TCP whose ends have one IP or are both loopback.
func (p *Pool) SameHost(addr string) bool {
	c, err := p.Get(addr)
	if err != nil {
		return false
	}
	if c.conn.RemoteAddr().Network() == "pipe" {
		return true
	}
	l, lok := c.conn.LocalAddr().(*net.TCPAddr)
	r, rok := c.conn.RemoteAddr().(*net.TCPAddr)
	return lok && rok && (l.IP.Equal(r.IP) || l.IP.IsLoopback() && r.IP.IsLoopback())
}

// Call is the control-plane call every manager client makes: one
// request to addr, transport failures retried per b. enc encodes the
// request into a fresh recycled frame on every attempt, because rpc
// owns a frame once it was sent; dec (nil when the response carries
// nothing) decodes the response, which is recycled the moment dec
// returns — what dec keeps must be copied out, never alias p.
func (p *Pool) Call(ctx context.Context, b Backoff, addr string, m uint16, size int,
	enc func(*wire.Buffer), dec func(p []byte) error) error {
	var derr error // a response that does not decode is not a reason to retry
	err := Retry(ctx, b, func(ctx context.Context) error {
		cl, err := p.Get(addr)
		if err != nil {
			return err
		}
		f := NewFrame(size)
		if enc != nil {
			enc(f)
		}
		resp, err := cl.CallFrame(ctx, m, f)
		if err == nil && dec != nil {
			derr = dec(resp)
		}
		wire.PutBuf(resp)
		return err
	})
	if err != nil {
		return err
	}
	return derr
}

// StartInto is Client.StartInto on addr's client, which req goes to
// either way: a failure to dial comes back from the call's Wait.
func (p *Pool) StartInto(ctx context.Context, addr string, m uint16, req *wire.Buffer, dsts ...[]byte) Pending {
	cl, err := p.Get(addr)
	if err != nil {
		req.Release()
		return Pending{err: err}
	}
	return cl.StartInto(ctx, m, req, dsts...)
}

// Close closes every pooled client.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for addr, c := range p.clients {
		c.Close()
		delete(p.clients, addr)
	}
}
