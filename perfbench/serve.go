package main

// This file rebuilds the program's serve loops and client fetch from
// public httpwire, cdn and origin calls, wrapped in spans. The loops
// reproduce cdn.Edge.ServeConn, origin.Server.ServeConn and
// origin.Fetch step for step, so a traced topology moves exactly the
// bytes the program's own loops move (checked by every traced run).

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdn"
	"repro/internal/httpwire"
	"repro/internal/netsim"
)

// links carry the causing span across goroutines: a sender registers
// the span a request belongs under, keyed by the address it is sent to
// and its target, and the receiving loop looks it up after parsing.
type links struct {
	mu     sync.Mutex
	byKey  map[string]int32
	latest map[string]int32
}

func newLinks() *links {
	return &links{byKey: map[string]int32{}, latest: map[string]int32{}}
}

func (l *links) put(addr, target string, parent int32) {
	l.mu.Lock()
	l.byKey[addr+" "+target] = parent
	l.latest[addr] = parent
	l.mu.Unlock()
}

// get returns the span registered for (addr, target), or the latest
// one sent to addr when a hop rewrote the target.
func (l *links) get(addr, target string) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p, ok := l.byKey[addr+" "+target]; ok {
		return p
	}
	if p, ok := l.latest[addr]; ok {
		return p
	}
	return noSpan
}

// ioStats counts calls into a transport and the time they blocked.
type ioStats struct {
	reads, writes atomic.Int64
	readNanos     atomic.Int64 // time reads blocked while a request was open
	dials, conns  atomic.Int64
	upstreamReqs  atomic.Int64 // requests served by nodes an edge fetches from
	bodyBytes     atomic.Int64 // response body bytes origin loops sent
}

// tconn wraps one connection end, recording a span per Read and Write
// under the span in cur. Only the goroutine that owns the connection
// at a time touches cur.
type tconn struct {
	netsim.Conn
	t     *tracedNet
	read  string // span names: "netsim.read" or "transport.read"
	write string
	track uint32
	cur   int32

	// Upstream ends learn their parent from the request line they carry.
	lk   *links
	addr string
}

func (c *tconn) Read(p []byte) (int, error) {
	start := time.Now()
	sp := noSpan
	if c.cur != noSpan {
		sp = c.t.r().begin(c.read, 0, c.cur, c.track)
	}
	n, err := c.Conn.Read(p)
	c.t.r().end(sp)
	c.t.st.reads.Add(1)
	if c.cur != noSpan { // waiting for a kept-alive peer's next request is idle, not I/O wait
		c.t.st.readNanos.Add(int64(time.Since(start)))
	}
	return n, err
}

func (c *tconn) Write(p []byte) (int, error) {
	if c.lk != nil {
		if target, ok := requestTarget(p); ok {
			c.cur = c.lk.get(c.addr, target)
		}
	}
	sp := noSpan
	if c.cur != noSpan {
		sp = c.t.r().begin(c.write, 0, c.cur, c.track)
	}
	n, err := c.Conn.Write(p)
	c.t.r().end(sp)
	c.t.st.writes.Add(1)
	return n, err
}

var requestMethods = [][]byte{[]byte("GET "), []byte("HEAD ")}

// requestTarget extracts the target of a request line at the start of p.
func requestTarget(p []byte) (string, bool) {
	for _, m := range requestMethods {
		if bytes.HasPrefix(p, m) {
			rest := p[len(m):]
			if i := bytes.IndexByte(rest, ' '); i >= 0 {
				return string(rest[:i]), true
			}
		}
	}
	return "", false
}

// tracedNet is the shared state of one traced topology.
type tracedNet struct {
	rec    atomic.Pointer[recorder] // nil while setting up: nothing recorded
	keep   atomic.Bool              // keep the requests the loops read
	keptMu sync.Mutex
	kept   []keptRequest
	lk     *links
	st     ioStats
	layer  string // "netsim" or "transport"
	tracks atomic.Uint32
}

func newTracedNet(layer string) *tracedNet {
	return &tracedNet{lk: newLinks(), layer: layer}
}

// r is the recorder spans go to (nil records nothing).
func (t *tracedNet) r() *recorder { return t.rec.Load() }

func (t *tracedNet) wrap(c netsim.Conn, cur int32) *tconn {
	return &tconn{Conn: c, t: t, read: t.layer + ".read", write: t.layer + ".write",
		track: t.tracks.Add(1), cur: cur}
}

// keptRequest is a request a rebuilt loop read, kept as a sample of the
// workload's messages.
type keptRequest struct {
	req    *httpwire.Request
	origin bool // read by an origin loop
}

// sample returns the kept requests and stops keeping more.
func (t *tracedNet) sample() []keptRequest {
	t.keep.Store(false)
	t.keptMu.Lock()
	defer t.keptMu.Unlock()
	return t.kept
}

// dialer wraps an upstream dialer so the edge's back-to-origin
// connections are traced; it satisfies cdn.UpstreamDialer.
type dialer struct {
	t     *tracedNet
	inner cdn.UpstreamDialer
}

func (d dialer) Dial(addr string, seg *netsim.Segment) (netsim.Conn, error) {
	sp := d.t.r().begin(d.t.layer+".dial", 0, d.t.lk.get(addr, ""), 0)
	conn, err := d.inner.Dial(addr, seg)
	d.t.r().end(sp)
	if err != nil {
		return nil, err
	}
	d.t.st.dials.Add(1)
	c := d.t.wrap(conn, noSpan)
	c.lk, c.addr = d.t.lk, addr
	return c, nil
}

// server is one node's request handler as the rebuilt loop drives it.
type server struct {
	t        *tracedNet
	addr     string // this node's address, the key senders register under
	upstream string // where its handler fetches from ("" for an origin)
	span     string // "cdn.handle" or "origin.handle"
	behind   bool   // an edge fetches from this node
	handle   func(*httpwire.Request) *httpwire.Response
}

// ServeConn is the rebuilt keep-alive loop of cdn.Edge.ServeConn and
// origin.Server.ServeConn: read a request, handle it, write and flush
// the response, stop on error or Connection: close. It satisfies
// transport.ConnHandler.
func (s *server) ServeConn(raw netsim.Conn) {
	t := s.t
	t.st.conns.Add(1)
	c := t.wrap(raw, noSpan)
	defer c.Close()
	br := httpwire.GetReader(c)
	defer httpwire.PutReader(br)
	bw := httpwire.GetWriter(c)
	defer httpwire.PutWriter(bw)
	for {
		// Waiting for the next request on a kept-alive connection is
		// idle time, not work: only start timing once bytes arrived.
		c.cur = noSpan
		if _, err := br.Peek(1); err != nil {
			return
		}
		rs := t.r().begin("httpwire.read", 0, noSpan, c.track)
		c.cur = rs
		req, err := httpwire.ReadRequest(br, httpwire.Limits{})
		t.r().end(rs)
		if err != nil {
			return
		}
		if t.keep.Load() {
			t.keptMu.Lock()
			t.kept = append(t.kept, keptRequest{req: req.Clone(), origin: s.upstream == ""})
			t.keptMu.Unlock()
		}
		parent := t.lk.get(s.addr, req.Target)
		t.r().reparent(rs, parent)
		hs := t.r().begin(s.span, 0, parent, c.track)
		if s.upstream != "" {
			t.lk.put(s.upstream, req.Target, hs)
		}
		resp := s.handle(req)
		t.r().end(hs)
		if s.behind {
			t.st.upstreamReqs.Add(1)
		}
		if s.upstream == "" {
			t.st.bodyBytes.Add(resp.BodySize())
		}
		ws := t.r().begin("httpwire.write", 0, parent, c.track)
		c.cur = ws
		_, err = resp.WriteTo(bw)
		if err == nil {
			err = bw.Flush()
		}
		t.r().end(ws)
		if err != nil {
			return
		}
		if v, _ := req.Headers.Get("Connection"); v == "close" {
			return
		}
	}
}

// serve accepts netsim connections until the listener closes; each
// connection ends with its last request.
func (s *server) serve(l *netsim.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go s.ServeConn(conn)
	}
}

// fetch is origin.Fetch rebuilt with spans under root: dial, send the
// request with Connection: close, read the response.
func (t *tracedNet) fetch(net *netsim.Network, addr string, seg *netsim.Segment, req *httpwire.Request, root int32) (*httpwire.Response, error) {
	t.lk.put(addr, req.Target, root)
	ds := t.r().begin("netsim.dial", 0, root, 0)
	raw, err := net.Dial(addr, seg)
	t.r().end(ds)
	if err != nil {
		return nil, err
	}
	t.st.dials.Add(1)
	c := t.wrap(raw, root)
	defer c.Close()
	prev, had := req.Headers.Get("Connection")
	req.Headers.Set("Connection", "close")
	ws := t.r().begin("httpwire.write", 0, root, c.track)
	c.cur = ws
	_, werr := req.WriteTo(c)
	t.r().end(ws)
	if had {
		req.Headers.Set("Connection", prev)
	} else {
		req.Headers.Del("Connection")
	}
	if werr != nil {
		return nil, werr
	}
	br := httpwire.GetReader(c)
	defer httpwire.PutReader(br)
	rs := t.r().begin("httpwire.read", 0, root, c.track)
	c.cur = rs
	resp, err := httpwire.ReadResponse(br, httpwire.Limits{})
	t.r().end(rs)
	if err != nil && !errors.Is(err, netsim.ErrClosed) {
		return resp, err
	}
	return resp, nil
}
