// Package rpc is the minimal remote-procedure-call layer every daemon
// in the reproduction is built on: pipelined request/response over a
// single connection, numeric method dispatch, and pluggable transports
// (real TCP for deployments, an in-process network for tests and
// embedded clusters).
//
// Every service method is registered under a name (Mux.HandleFrame,
// Mux.HandleInline), and the Server dispatches, names and meters it in
// one place: a service hands its registry to NewMeteredMux once, and
// each method exports ops_<name>, errors_<name> and latency_<name>
// there; under a tracer (Server.SetTrace) each traced request records a
// span of that name.
//
// Frame layout (inside a wire frame):
//
//	u64 request id | u16 method | u8 flags | u16 status | [trace] | payload...
//
// flags bit 0 marks a response. status is non-zero on a response whose
// payload is an error message; services map status codes back to
// sentinel errors. flags bit 1, on a request, announces a 25-byte
// trace context between the status and the payload: u64 trace-id hi,
// u64 trace-id lo, u64 parent span id, u8 trace flags (bit 0 =
// sampled). Requests without the bit carry no trace bytes at all, so
// untraced frames are byte-identical to the pre-trace protocol and old
// peers interoperate.
//
// Buffer ownership: every frame is a recycled wire.Buffer over one
// recycled slice (wire.GetBuf) with room for its headers in front of the
// payload, so a frame costs one conn.Write, no copy to join the two and,
// once warm, no allocation. A handler's payload is valid until the
// handler returns (its response may alias it); a frame handed to
// CallFrame or returned by a FrameHandler is rpc's from then on, and the
// *wire.Buffer itself is dead once rpc has sent it: rpc releases it, and
// it is handed out again to whoever asks for a frame next. Call's result
// is the caller's for ever; CallFrame's is recycled and goes to
// wire.PutBuf when the caller is done with it. Bulk bytes travel by
// reference both ways: a frame's tails (wire.Buffer.Tail32, Attach) stay
// the caller's, are sent with the frame (one writev on TCP) and must not
// change until the call — or, for a response, the handler's frame write
// — has returned. A frame's file tails (AttachFile) are the frame's and
// follow the others, by sendfile on TCP. StartInto's dsts are written
// only until its Wait returns, each only up to the count the response
// gives it, and none of them when any count does not fit: a call that
// gives up while its response is landing returns once the read has
// ended. Pool.Call wraps those rules for the control plane: it encodes
// the request again for every attempt and recycles the response as soon
// as the caller's decoder has returned.
//
// No sync.Mutex is held across a network wait: it would queue callers
// behind the slowest round trip. A conn's writer lock is held while one
// frame goes out; a call waits for its response holding no lock.
// Likewise a request runs on a handler goroutine, parked since its last
// request, so that a handler may wait (for a publication, a downstream
// hop, a log sync), unless its method is registered with HandleInline:
// such a handler waits on nothing but its own response write, and runs
// on the connection's goroutine. A caller talking to many peers at once
// need not start goroutines either: StartInto sends a call and
// Pending.Wait collects it, so one goroutine can send every request
// first and then wait.
package rpc

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"blobseer/internal/obs"
	"blobseer/internal/wire"
)

const (
	flagResponse = 1
	// flagTrace marks a request frame carrying a trace context.
	flagTrace = 2
	// traceSampled is bit 0 of the trace-flags byte.
	traceSampled = 1
	// traceHdrLen is the size of the optional trace context block.
	traceHdrLen = 25
	// hdrLen is the fixed header: id, method, flags, status.
	hdrLen = 13
	// frameHead is the room NewFrame keeps in front of a payload. Headers
	// are written right-aligned, so an untraced frame starts traceHdrLen in.
	frameHead = wire.FrameLenSize + hdrLen + traceHdrLen
)

// NewFrame returns a recycled buffer to encode a request or response
// payload of about capacity bytes into, for CallFrame or a FrameHandler.
func NewFrame(capacity int) *wire.Buffer { return wire.NewFrame(frameHead, capacity) }

// frameOf copies p into a frame.
func frameOf(p []byte) *wire.Buffer {
	f := NewFrame(len(p))
	copy(f.Extend(len(p)), p)
	return f
}

// frameWriter puts frames on one connection, one at a time.
type frameWriter struct {
	conn net.Conn
	mu   sync.Mutex // serializes frames on the shared conn
	// A frame's pieces: headers and body, then its tails. The vector
	// lives here and is reused, so that sending a frame allocates nothing
	// once the conn has sent one with as many tails.
	pieces [][]byte
	vec    net.Buffers // pieces as WriteTo consumes them
	// File tails go by sendfile on a raw fd (TCP): the RawConn, callback
	// and tail being sent live here, so that a file tail allocates nothing.
	raw     syscall.RawConn // nil: the conn has none, file tails are copied
	send    func(sock uintptr) bool
	file    wire.FileTail // what is left of the tail being sent
	fileErr error
}

// writeFrame completes f's headers in place, puts the frame on the conn
// and releases f, always. A frame without a tail is exactly one Write; a
// tailed one is one vectored write where the conn has that (TCP: writev)
// and otherwise one more Write per tail under the same lock. File tails
// follow; one cut short fails the write, and the caller closes the conn.
func (w *frameWriter) writeFrame(deadline time.Duration, f *wire.Buffer,
	id uint64, method uint16, flags uint8, status uint16, tc obs.Context) error {
	b := f.Raw()
	if flags&flagTrace == 0 {
		b = b[traceHdrLen:]
	}
	h := b[wire.FrameLenSize:]
	binary.BigEndian.PutUint64(h, id)
	binary.BigEndian.PutUint16(h[8:], method)
	h[10] = flags
	binary.BigEndian.PutUint16(h[11:], status)
	if flags&flagTrace != 0 {
		binary.BigEndian.PutUint64(h[13:], tc.Trace.Hi)
		binary.BigEndian.PutUint64(h[21:], tc.Trace.Lo)
		binary.BigEndian.PutUint64(h[29:], uint64(tc.Span))
		h[37] = traceSampled
	}
	w.mu.Lock()
	w.pieces = f.AppendTails(append(w.pieces[:0], b))
	n := -wire.FrameLenSize
	for _, p := range w.pieces {
		n += len(p)
	}
	for _, t := range f.Files() {
		n += int(t.N)
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	if deadline > 0 {
		// A peer that stopped draining its socket must not wedge the
		// sender forever: bound the frame write.
		w.conn.SetWriteDeadline(time.Now().Add(deadline))
	}
	var err error
	if len(w.pieces) == 1 {
		_, err = w.conn.Write(b)
	} else {
		w.vec = w.pieces
		_, err = w.vec.WriteTo(w.conn)
	}
	clear(w.pieces) // the tails are the caller's again
	for i := 0; err == nil && i < len(f.Files()); i++ {
		err = w.writeFile(f.Files()[i])
	}
	w.mu.Unlock()
	f.Release()
	return err
}

// writeFile sends a file tail: by sendfile, else via a recycled buffer.
func (w *frameWriter) writeFile(t wire.FileTail) error {
	if w.send == nil {
		w.send = w.sendfile
		if sc, ok := w.conn.(syscall.Conn); ok && haveSendfile {
			w.raw, _ = sc.SyscallConn() // a conn that has none is copied to
		}
	}
	if w.raw != nil {
		w.file, w.fileErr = t, nil
		return cmp.Or(w.raw.Write(w.send), w.fileErr)
	}
	buf := wire.GetBuf(int(min(t.N, 1<<20)))
	defer wire.PutBuf(buf)
	n, err := io.CopyBuffer(w.conn, io.NewSectionReader(t.F, t.Off, t.N), buf[:cap(buf)])
	if err == nil && n < t.N {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// StatusOK marks a successful response.
const StatusOK uint16 = 0

// StatusError is the generic failure status used when a handler returns
// an error that carries no specific code.
const StatusError uint16 = 1

// ErrConnBroken wraps transport-level call failures so callers can
// distinguish them from remote application errors and retry safely.
var ErrConnBroken = errors.New("rpc: connection broken")

// ErrMisfit fails a StartInto call whose response is not a u32 count per
// destination followed by that many bytes for each, or gives one a count
// larger than it holds: nothing was written to any destination.
var ErrMisfit = errors.New("rpc: response does not fit its destinations")

// ErrCallTimeout wraps calls aborted by the transport's own per-call
// I/O deadline: the peer accepted the connection but produced no
// response in time — the signature of a hung or wedged service. It is
// distinct from the caller's ctx expiring (the caller gave up) and is
// classified as a TransportFailure, so Retry treats a hung peer exactly
// like a dead one.
var ErrCallTimeout = errors.New("rpc: call timed out")

// noTimeoutKey marks a context as exempt from the client's per-call
// I/O deadline.
type noTimeoutKey struct{}

// NoTimeout returns a context whose calls bypass the transport's
// per-call I/O deadline. Intentionally long-blocking RPCs (the version
// manager's WaitPublished) opt out this way while everything else on
// the same connection stays bounded.
func NoTimeout(ctx context.Context) context.Context {
	return context.WithValue(ctx, noTimeoutKey{}, true)
}

func hasNoTimeout(ctx context.Context) bool {
	v, _ := ctx.Value(noTimeoutKey{}).(bool)
	return v
}

// RemoteError is an error returned by the remote handler.
type RemoteError struct {
	Code uint16
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error (code %d): %s", e.Code, e.Msg)
}

// Coder is implemented by errors that carry a protocol status code so
// they survive the wire round-trip as something machine-checkable.
type Coder interface{ RPCCode() uint16 }

// CodedError creates an error carrying an explicit status code.
func CodedError(code uint16, msg string) error { return &codedError{code: code, msg: msg} }

type codedError struct {
	code uint16
	msg  string
}

func (e *codedError) Error() string   { return e.msg }
func (e *codedError) RPCCode() uint16 { return e.code }

// TransportFailure reports whether err means the remote endpoint could
// not be reached or the connection died before a response arrived —
// the signal that a provider may actually be down. Application-level
// errors (RemoteError, coded errors) mean the remote answered and is
// alive; context cancellation means the *caller* gave up. Neither is
// evidence of a dead endpoint, so failure-feedback loops (core
// reporting MarkDead to the provider manager) key off this predicate.
func TransportFailure(err error) bool {
	if err == nil {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	var c Coder
	if errors.As(err, &c) {
		return false
	}
	// The transport's own per-call deadline firing means the *peer* went
	// silent, not that the caller gave up: retryable.
	if errors.Is(err, ErrCallTimeout) {
		return true
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// CodeOf extracts the status code from err (StatusError if none).
func CodeOf(err error) uint16 {
	var c Coder
	if errors.As(err, &c) {
		return c.RPCCode()
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Code
	}
	return StatusError
}

// HandlerFunc processes one request payload and returns a response
// payload or an error. ctx carries the request's trace context (if the
// frame was traced), so handlers that fan out propagate causality by
// passing ctx to their own calls. payload is valid until the handler
// returns; the response may alias it. Only the benchmark module's echo
// probe registers one (Handle); services register FrameHandlers.
type HandlerFunc func(ctx context.Context, payload []byte) ([]byte, error)

// FrameHandler processes one request payload and encodes its response
// straight into a frame from NewFrame: the server sends that frame
// without copying it and releases it. ctx carries the request's trace
// context (if the frame was traced), so handlers that fan out — a
// provider forwarding down a replica chain, the namespace manager
// calling the version manager — propagate causality by passing ctx to
// their own calls. payload is valid until the handler returns; the
// response may alias it.
type FrameHandler func(ctx context.Context, payload []byte) (*wire.Buffer, error)

// Mux dispatches requests by method number, and names each method: its
// server span carries the name, and a Mux built by NewMeteredMux meters
// it as ops_<name> (counted when a request reaches the handler),
// errors_<name> and latency_<name> (both when the handler returns). The
// zero value is usable and unmetered.
type Mux struct {
	reg      *obs.Registry // nil: unmetered
	mu       sync.RWMutex
	handlers map[uint16]*handler
}

// handler is a registered method: its function, its name, its meters
// (nil when the Mux is unmetered) and whether it runs on the
// connection's goroutine (HandleInline).
type handler struct {
	fn     FrameHandler
	inline bool
	name   string // "": registered by Handle, spans read m<N>
	ops    *obs.Counter
	errs   *obs.Counter
	lat    *obs.Histogram
}

// NewMux returns an empty, unmetered Mux. Every service meters its
// methods (NewMeteredMux): only tests and the benchmark module's echo
// probe, the one Handle caller, serve an unmetered Mux.
func NewMux() *Mux { return &Mux{} }

// NewMeteredMux returns an empty Mux that meters every named method on
// reg, the service's registry.
func NewMeteredMux(reg *obs.Registry) *Mux { return &Mux{reg: reg} }

// Handle registers fn for method m, replacing any previous handler. Its
// response is copied into a frame, and the method has no name: it is
// not metered and its spans read m<N>. Only the benchmark module's echo
// probe uses it.
func (x *Mux) Handle(m uint16, fn HandlerFunc) {
	x.register(m, &handler{fn: func(ctx context.Context, payload []byte) (*wire.Buffer, error) {
		resp, err := fn(ctx, payload)
		if err != nil {
			return nil, err
		}
		return frameOf(resp), nil
	}})
}

// HandleFrame registers fn as method m, named name, replacing any
// previous handler of m. Each request runs on a handler goroutine.
// It panics on an empty name, or on one another method of x has: the
// two would share their meters.
func (x *Mux) HandleFrame(m uint16, name string, fn FrameHandler) {
	x.register(m, &handler{fn: fn, name: mustName(m, name)})
}

// HandleInline is HandleFrame for a handler that waits on nothing but
// its own response write: it runs on the connection's goroutine, which
// reads the connection's next request only once the response is out.
// That costs no parallelism, since one connection's responses go out
// one at a time anyway, and saves the request its handoff.
func (x *Mux) HandleInline(m uint16, name string, fn FrameHandler) {
	x.register(m, &handler{fn: fn, inline: true, name: mustName(m, name)})
}

func mustName(m uint16, name string) string {
	if name == "" {
		panic(fmt.Sprintf("rpc: method %d registered without a name", m))
	}
	return name
}

// register files h as method m, its meters resolved.
func (x *Mux) register(m uint16, h *handler) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if h.name != "" {
		for other, o := range x.handlers {
			if other != m && o.name == h.name {
				panic(fmt.Sprintf("rpc: methods %d and %d are both named %q", other, m, h.name))
			}
		}
		// A nil registry hands out nil meters, which count nothing.
		h.ops = x.reg.Counter("ops_" + h.name)
		h.errs = x.reg.Counter("errors_" + h.name)
		h.lat = x.reg.Histogram("latency_" + h.name)
	}
	if x.handlers == nil {
		x.handlers = make(map[uint16]*handler)
	}
	x.handlers[m] = h
}

// lookup returns method m's handler, nil for an unknown method.
func (x *Mux) lookup(m uint16) *handler {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.handlers[m]
}

// Server serves RPC requests on accepted connections. Each request runs
// on a handler goroutine: a parked one, or a new one when none is, so
// handlers may block (the version manager's wait-for-publication call
// relies on this), except that a method registered with HandleInline
// runs on its connection's goroutine, and may wait on nothing but its
// response write. Every request the Mux knows is metered by its
// method's name (see Mux) and, under a tracer, records a span of that
// name.
type Server struct {
	mux    *Mux
	tracer *obs.Tracer

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	work     chan request  // unbuffered: taken only by a parked handler
	severed  chan struct{} // closed by Sever: parked handlers exit
	parked   atomic.Int32  // handlers parked on work, or about to be
	handlers sync.WaitGroup
}

// maxParked bounds the handler goroutines parked between requests.
const maxParked = 64

// request is a request frame handed to a handler goroutine.
type request struct {
	req []byte
	h   *handler
	fw  *frameWriter
	wg  *sync.WaitGroup
}

// NewServer returns a server dispatching through mux.
func NewServer(mux *Mux) *Server {
	return &Server{mux: mux, conns: make(map[net.Conn]struct{}), work: make(chan request), severed: make(chan struct{})}
}

// SetTrace attaches a tracer: every dispatched request that carries a
// sampled trace context records one server-side span, named as its
// method is registered (m<N> for a method registered by Handle). Must
// be called before Serve.
func (s *Server) SetTrace(t *obs.Tracer) { s.tracer = t }

// Serve accepts connections from lis until the server is closed. It
// always returns a non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return net.ErrClosed
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops the listener and all connections, waiting for in-flight
// handlers to finish writing.
func (s *Server) Close() error {
	s.Sever()
	s.wg.Wait()
	s.handlers.Wait() // every connection is gone: nothing starts one now
	return nil
}

// Sever closes the listener and every active connection WITHOUT
// waiting for in-flight handlers — the abrupt first half of Close,
// exposed for crash injection: a handler blocked server-side (a
// publication waiter, say) must not be able to stall a "crash". The
// caller may unblock such handlers after severing and then Close to
// drain; their response writes fail harmlessly on the dead conns.
func (s *Server) Sever() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.severed)
	lis := s.lis
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	fw := &frameWriter{conn: conn}
	var hwg sync.WaitGroup
	defer hwg.Wait()
	var pre [wire.FrameLenSize]byte
	for {
		// An oversize length drops the connection before any
		// payload-sized buffer is taken.
		if _, err := io.ReadFull(conn, pre[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(pre[:]))
		if n > wire.MaxFrameSize {
			return
		}
		req := wire.GetBuf(n)[:n]
		if _, err := io.ReadFull(conn, req); err != nil {
			wire.PutBuf(req)
			return
		}
		_, method, _, _, ok := parseRequest(req)
		if !ok {
			wire.PutBuf(req)
			return // protocol violation; drop the connection
		}
		h := s.mux.lookup(method)
		r := request{req, h, fw, &hwg}
		hwg.Add(1)
		if h == nil || h.inline { // an unknown method is answered at once
			s.serveOne(r) // a failed write closes conn: the next read fails
			continue
		}
		select {
		case s.work <- r:
		default:
			s.handlers.Add(1)
			go s.handle(r)
		}
	}
}

// handle serves r, then parks for the next request until the server is
// severed, or exits when maxParked handlers are parked already: a
// reused goroutine allocates nothing and has its stack grown already.
func (s *Server) handle(r request) {
	defer s.handlers.Done()
	for {
		s.serveOne(r)
		if s.parked.Add(1) > maxParked {
			s.parked.Add(-1)
			return
		}
		select {
		case r = <-s.work:
			s.parked.Add(-1)
		case <-s.severed:
			return
		}
	}
}

// serveOne answers a request, inline or on a handler goroutine.
func (s *Server) serveOne(r request) {
	id, method, payload, tc, _ := parseRequest(r.req)
	resp, status := s.dispatch(tc, r.h, method, payload)
	err := r.fw.writeFrame(0, resp, id, method, flagResponse, status, obs.Context{})
	wire.PutBuf(r.req) // the response is out: nothing references the request now
	if err != nil {
		r.fw.conn.Close()
	}
	r.wg.Done()
}

// parseRequest splits a request frame into its header fields, sampled
// trace context and payload; ok is false for a response frame or a
// truncated header.
func parseRequest(req []byte) (id uint64, method uint16, payload []byte, tc obs.Context, ok bool) {
	r := wire.NewReader(req)
	id, method = r.U64(), r.U16()
	flags := r.U8()
	_ = r.U16() // status unused on requests
	if flags&flagTrace != 0 {
		hi, lo, span := r.U64(), r.U64(), r.U64()
		if r.U8()&traceSampled != 0 {
			tc = obs.Context{Trace: obs.ID{Hi: hi, Lo: lo}, Span: obs.SpanID(span)}
		}
	}
	return id, method, req[len(req)-r.Remaining():], tc, r.Err() == nil && flags&flagResponse == 0
}

// dispatch runs h, the handler of method (nil: unknown method), on a
// request's payload and returns the response frame and its status. The
// method's request is counted on entry, so a handler that waits (a
// parked WaitPublished) counts before it answers; an unmetered method
// reads no clock.
func (s *Server) dispatch(tc obs.Context, h *handler, method uint16, payload []byte) (*wire.Buffer, uint16) {
	if h == nil {
		return frameOf([]byte(fmt.Sprintf("unknown method %d", method))), StatusError
	}
	h.ops.Inc()
	var t0 time.Time
	if h.lat != nil {
		t0 = time.Now()
	}
	ctx := context.Background()
	if !tc.Trace.IsZero() {
		ctx = obs.NewContext(ctx, tc)
	}
	var sp obs.Active
	if s.tracer != nil {
		name := h.name
		if name == "" {
			name = "m" + strconv.Itoa(int(method))
		}
		ctx, sp = s.tracer.Start(ctx, name)
	}
	resp, err := h.fn(ctx, payload)
	h.lat.ObserveSince(t0)
	if err != nil {
		h.errs.Inc()
		code := CodeOf(err)
		sp.FinishCode(code, err.Error())
		return frameOf([]byte(err.Error())), code
	}
	sp.FinishCode(StatusOK, "")
	if resp == nil { // a handler with nothing to say
		resp = NewFrame(0)
	}
	return resp, StatusOK
}

// Client is a pipelined RPC client over one connection. It is safe for
// concurrent use; concurrent Calls share the connection.
type Client struct {
	conn net.Conn
	w    frameWriter // request frames

	nextID  atomic.Uint64
	timeout atomic.Int64 // per-call I/O deadline in ns (0 = none)

	mu      sync.Mutex
	pending map[uint64]*call
	free    []*call // finished call records, channel empty, timer stopped
	err     error   // set once the read loop dies
	// landing is the id of the call whose dsts the read loop is reading a
	// response into right now (0: none); landed announces its end.
	landing uint64
	landed  sync.Cond
}

// SetIOTimeout bounds every subsequent Call: frame writes get a write
// deadline, and a call whose response does not arrive within d fails
// with ErrCallTimeout. Calls whose ctx carries its own deadline, or
// which opted out via NoTimeout, are exempt from the response bound
// (the write deadline always applies). d <= 0 disables.
func (c *Client) SetIOTimeout(d time.Duration) { c.timeout.Store(int64(d)) }

// call is one in-flight request. Records are reused (Client.free): a
// record goes back only once it is out of pending and its channel is
// drained, so nothing can still send to it.
type call struct {
	ch       chan callResult // buffered: the read loop never blocks on it
	timer    *time.Timer     // the response bound, stopped between calls
	recycled bool            // read the response payload into a wire.GetBuf slice
	// StartInto's destinations, copied into a vector of the record's own
	// so that the caller's may live on its stack.
	dsts [][]byte
}

type callResult struct {
	payload []byte
	status  uint16
	err     error // the call failed on this side: connection lost, ErrMisfit
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn, w: frameWriter{conn: conn}, pending: make(map[uint64]*call)}
	c.landed.L = &c.mu
	go c.readLoop()
	return c
}

// Call sends a request and waits for its response or ctx cancellation.
// payload is copied into a frame and not retained; the result is read
// from the connection into a slice of its own, the caller's to keep.
// Services call through Pool.Call; only the benchmark module's echo
// probe calls this.
func (c *Client) Call(ctx context.Context, method uint16, payload []byte) ([]byte, error) {
	return c.start(ctx, method, frameOf(payload), false, nil).Wait()
}

// CallFrame is Call for the data path: the request is already encoded
// in req (from NewFrame), which rpc owns from here on, and the result
// is a recycled slice the caller hands to wire.PutBuf when done.
func (c *Client) CallFrame(ctx context.Context, method uint16, req *wire.Buffer) ([]byte, error) {
	return c.start(ctx, method, req, true, nil).Wait()
}

// StartInto sends a CallFrame whose response is k = len(dsts) pieces —
// k u32 counts, then that many bytes for each piece in turn — and
// returns without waiting, so that one goroutine can have calls out to
// many peers at once. The call's Wait reads piece i off the connection
// straight into dsts[i], leaves dsts[i] as it was past its count, and
// returns the counts alone; a successful response of another shape
// fails with ErrMisfit and writes to no destination. The dsts are the
// call's until Wait has returned, and written only before: a call that
// gives up (ctx, I/O timeout) while its response is landing returns
// once that read has ended. With no dsts, StartInto(...).Wait() is
// CallFrame.
func (c *Client) StartInto(ctx context.Context, method uint16, req *wire.Buffer, dsts ...[]byte) Pending {
	return c.start(ctx, method, req, true, dsts)
}

// Pending is a call whose request has gone out. Every started call is
// waited on, exactly once: until then its record stays out of the
// client's free list, and a response can still land in its dsts.
type Pending struct {
	c       *Client
	ctx     context.Context
	cl      *call // nil: the call failed before or while sending, with err
	err     error
	id      uint64
	d       time.Duration    // the I/O timeout the call went out under
	timeout <-chan time.Time // the response bound; nil: none
}

func (c *Client) start(ctx context.Context, method uint16, req *wire.Buffer, recycled bool, dsts [][]byte) Pending {
	id := c.nextID.Add(1)

	// A context that is already done fails the call here, not by a coin
	// toss between its Done channel and a fast response.
	err := ctx.Err()
	c.mu.Lock()
	if err == nil {
		err = c.err
	}
	if err != nil {
		c.mu.Unlock()
		req.Release()
		return Pending{err: err}
	}
	var cl *call
	if n := len(c.free); n > 0 {
		cl, c.free = c.free[n-1], c.free[:n-1]
	} else {
		cl = &call{ch: make(chan callResult, 1)}
	}
	cl.recycled, cl.dsts = recycled, append(cl.dsts[:0], dsts...)
	c.pending[id] = cl
	c.mu.Unlock()

	// A trace context on ctx rides the frame so the server joins the
	// caller's trace; untraced calls emit exactly the legacy header.
	tc, traced := obs.FromContext(ctx)
	var flags uint8
	if traced && !tc.Trace.IsZero() {
		flags = flagTrace
	}
	d := time.Duration(c.timeout.Load())
	if err := c.w.writeFrame(d, req, id, method, flags, 0, tc); err != nil {
		c.abandon(id, cl)
		// A failed frame write may have left a partial frame on the
		// wire; the connection is unusable for framing either way.
		c.conn.Close()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return Pending{err: fmt.Errorf("%w: frame write stalled for %v", ErrCallTimeout, d)}
		}
		return Pending{err: fmt.Errorf("rpc: send: %w", err)}
	}

	// The response bound: skipped when the caller manages its own
	// deadline or explicitly opted out (long-blocking waits).
	p := Pending{c: c, ctx: ctx, cl: cl, id: id, d: d}
	if d > 0 && !hasNoTimeout(ctx) {
		if _, hasDeadline := ctx.Deadline(); !hasDeadline {
			if cl.timer == nil {
				cl.timer = time.NewTimer(d)
			} else {
				cl.timer.Reset(d)
			}
			p.timeout = cl.timer.C
		}
	}
	return p
}

// Wait waits for the call's response, its I/O timeout or its context,
// whichever comes first, and returns what Call or CallFrame would have,
// or for a call with dsts the counts (see StartInto). Once it has returned, nothing writes to the call's dsts.
func (p Pending) Wait() ([]byte, error) {
	c, cl := p.c, p.cl
	if cl == nil {
		return nil, p.err
	}
	select {
	case res := <-cl.ch:
		c.release(cl)
		if res.err == nil && res.status == StatusOK {
			return res.payload, nil
		}
		defer wire.PutBuf(res.payload) // dead once the error is built, recycled or not
		if res.err != nil {
			return nil, res.err
		}
		return nil, &RemoteError{Code: res.status, Msg: string(res.payload)}
	case <-p.timeout:
		c.abandon(p.id, cl)
		return nil, fmt.Errorf("%w: no response within %v", ErrCallTimeout, p.d)
	case <-p.ctx.Done():
		c.abandon(p.id, cl)
		return nil, p.ctx.Err()
	}
}

// landGrace bounds abandon's wait on a client without an I/O timeout.
var landGrace = 5 * time.Second

// abandon gives up on call id: the read loop drains a response that
// still arrives, one delivered just before is released here, and one
// being read into the call's dsts right now is waited for — the caller
// gets its buffers back only when nothing writes to them any more.
func (c *Client) abandon(id uint64, cl *call) {
	c.mu.Lock()
	delete(c.pending, id)
	if c.landing == id {
		// A peer that stalls mid-frame has wedged the connection for every
		// call on it: bound the wait like a frame write, by closing it.
		d := time.Duration(c.timeout.Load())
		if d <= 0 {
			d = landGrace
		}
		defer time.AfterFunc(d, func() { c.conn.Close() }).Stop()
		for c.landing == id {
			c.landed.Wait()
		}
	}
	c.mu.Unlock()
	select {
	case res := <-cl.ch:
		wire.PutBuf(res.payload)
	default:
	}
	c.release(cl)
}

// release parks a call record that is out of pending with its channel
// empty. (Since Go 1.23 a stopped timer's channel holds no stale tick.)
func (c *Client) release(cl *call) {
	if cl.timer != nil {
		cl.timer.Stop()
	}
	clear(cl.dsts) // do not pin the caller's buffers until the record is reused
	c.mu.Lock()
	c.free = append(c.free, cl)
	c.mu.Unlock()
}

// Close tears down the connection; in-flight calls fail.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) readLoop() {
	var err error
	var pre [wire.FrameLenSize + hdrLen]byte
	for {
		// Length prefix and header first: which call the frame answers
		// decides where its payload is read to.
		if _, err = io.ReadFull(c.conn, pre[:]); err != nil {
			break
		}
		n := int(binary.BigEndian.Uint32(pre[:])) - hdrLen
		h := pre[wire.FrameLenSize:]
		id, flags, status := binary.BigEndian.Uint64(h), h[10], binary.BigEndian.Uint16(h[11:])
		if n < 0 || n+hdrLen > wire.MaxFrameSize || flags&flagResponse == 0 {
			err = errors.New("rpc: protocol violation in response")
			break
		}
		c.mu.Lock()
		cl, ok := c.pending[id]
		recycled := ok && cl.recycled // read here: an abandoned record is reused
		var dsts [][]byte
		if ok && len(cl.dsts) > 0 && status == StatusOK {
			// A call that gives up meanwhile waits in abandon for the read
			// to end before its record, and this vector, go back.
			dsts = cl.dsts
			c.landing = id
		}
		c.mu.Unlock()
		res := callResult{status: status}
		switch {
		case !ok: // the call gave up: drain its response
			_, err = io.CopyN(io.Discard, c.conn, int64(n))
		case dsts != nil:
			res.payload, res.err, err = land(c.conn, n, dsts)
		case recycled:
			res.payload = wire.GetBuf(n)[:n]
			_, err = io.ReadFull(c.conn, res.payload)
		default:
			res.payload = make([]byte, n)
			_, err = io.ReadFull(c.conn, res.payload)
		}
		// Deliver only to a call that is still waiting (it may have
		// given up during the read), under the lock abandon takes.
		c.mu.Lock()
		if c.landing != 0 {
			c.landing = 0
			c.landed.Broadcast()
		}
		if cl, ok = c.pending[id]; ok && err == nil {
			delete(c.pending, id)
			cl.ch <- res
		} else {
			wire.PutBuf(res.payload)
		}
		c.mu.Unlock()
		if err != nil {
			break
		}
	}
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		err = fmt.Errorf("rpc: connection closed: %w", err)
	}
	c.mu.Lock()
	c.err = err
	broken := fmt.Errorf("%w: %v", ErrConnBroken, err)
	for id, cl := range c.pending {
		delete(c.pending, id)
		cl.ch <- callResult{err: broken}
	}
	c.mu.Unlock()
	c.conn.Close()
}

// land reads a successful response body of n bytes for a call with
// destinations: a u32 count per dst, then the pieces, each straight into
// its dst. The counts are the payload. A body of another shape is
// drained and answered with ErrMisfit before any byte reaches a dst.
func land(conn net.Conn, n int, dsts [][]byte) (payload []byte, misfit, err error) {
	head := 4 * len(dsts)
	if n < head {
		_, err = io.CopyN(io.Discard, conn, int64(n))
		return nil, ErrMisfit, err
	}
	payload = wire.GetBuf(head)[:head]
	if _, err = io.ReadFull(conn, payload); err != nil {
		return payload, nil, err
	}
	if !countsFit(payload, dsts, n-head) {
		wire.PutBuf(payload)
		_, err = io.CopyN(io.Discard, conn, int64(n-head))
		return nil, ErrMisfit, err
	}
	for i, dst := range dsts {
		if _, err = io.ReadFull(conn, dst[:binary.BigEndian.Uint32(payload[4*i:])]); err != nil {
			break
		}
	}
	return payload, nil, err
}

// countsFit reports whether counts, a u32 per dst, each fit their dst
// and add up to body bytes: the check StartInto's Wait makes of a response's
// counts before it lands a byte.
func countsFit(counts []byte, dsts [][]byte, body int) bool {
	for i, dst := range dsts {
		k := int(binary.BigEndian.Uint32(counts[4*i:]))
		if k > len(dst) {
			return false
		}
		body -= k
	}
	return body == 0
}
