package main

import (
	"fmt"

	"repro/internal/cdn"
	"repro/internal/core"
	"repro/internal/httpwire"
	"repro/internal/netsim"
	"repro/internal/origin"
	"repro/internal/resource"
	"repro/internal/vendor"
)

// Addresses of the in-memory topologies; they match the ones the core
// package's topologies listen on, so the wire bytes match too.
const (
	originAddr = "origin.internal:80"
	edgeAddr   = "edge.cdn:80"
	bcdnAddr   = "ingress.bcdn:80"
	fcdnAddr   = "ingress.fcdn:80"
)

// chainHop is one CDN node of a traced chain.
type chainHop struct {
	Profile      *vendor.Profile
	Addr         string
	UpSeg        string // segment its upstream fetches count on
	DisableCache bool
}

// chain is a traced in-memory topology: client -> hops[0] -> ... ->
// origin, built from the same constructors and configuration as the
// core package's topologies but served by the rebuilt loops.
type chain struct {
	tn        *tracedNet
	net       *netsim.Network
	origin    *origin.Server
	edges     []*cdn.Edge
	clientSeg *netsim.Segment
	upSegs    []*netsim.Segment
	listeners []*netsim.Listener
}

func newChain(rt *core.Runtime, store *resource.Store, originRanges bool, clientSeg string, hops []chainHop) (*chain, error) {
	c := &chain{
		tn:        newTracedNet("netsim"),
		net:       netsim.NewNetwork(),
		clientSeg: netsim.NewSegmentIn(rt.Metrics, clientSeg),
	}
	c.origin = origin.NewServer(store, origin.Config{RangeSupport: originRanges, Trace: rt.Trace, Metrics: rt.Metrics})
	if err := c.listen(originAddr, "", "origin.handle", true, c.origin.Handle); err != nil {
		return nil, err
	}
	c.edges = make([]*cdn.Edge, len(hops))
	c.upSegs = make([]*netsim.Segment, len(hops))
	for i := len(hops) - 1; i >= 0; i-- {
		h := hops[i]
		up := originAddr
		if i+1 < len(hops) {
			up = hops[i+1].Addr
		}
		c.upSegs[i] = netsim.NewSegmentIn(rt.Metrics, h.UpSeg)
		e, err := cdn.NewEdge(cdn.Config{
			Profile:      h.Profile,
			Dialer:       dialer{t: c.tn, inner: c.net},
			UpstreamAddr: up,
			UpstreamSeg:  c.upSegs[i],
			DisableCache: h.DisableCache,
			Trace:        rt.Trace,
			Metrics:      rt.Metrics,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.edges[i] = e
		if err := c.listen(h.Addr, up, "cdn.handle", i > 0, e.Handle); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *chain) listen(addr, upstream, spanName string, behind bool, h func(*httpwire.Request) *httpwire.Response) error {
	l, err := c.net.Listen(addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	c.listeners = append(c.listeners, l)
	s := &server{t: c.tn, addr: addr, upstream: upstream, span: spanName, behind: behind, handle: h}
	go s.serve(l)
	return nil
}

// close stops accepting; connections end with their requests.
func (c *chain) close() {
	for _, l := range c.listeners {
		l.Close()
	}
	for _, e := range c.edges {
		if e != nil {
			e.Close()
		}
	}
}

// segCount is one segment's response and request bytes and dials.
type segCount struct{ Up, Down, Conns int64 }

// segSnap holds counts for a list of segments.
type segSnap []segCount

func snapSegs(segs ...*netsim.Segment) segSnap {
	out := make(segSnap, len(segs))
	for i, s := range segs {
		t := s.Traffic()
		out[i] = segCount{Up: t.Up, Down: t.Down, Conns: s.Conns()}
	}
	return out
}

// since returns the counts accrued on segs after s was taken.
func (s segSnap) since(segs ...*netsim.Segment) segSnap {
	now := snapSegs(segs...)
	for i := range now {
		now[i].Up -= s[i].Up
		now[i].Down -= s[i].Down
		now[i].Conns -= s[i].Conns
	}
	return now
}

// diff describes how s differs from want ("" when equal). With cut, the
// last segment's Down may differ by one pipe window per dial: the
// origin-side bytes of a transfer the edge aborts.
func (s segSnap) diff(want segSnap, cut bool) string {
	for i := range s {
		g, w := s[i], want[i]
		if cut && i == len(s)-1 {
			slack := int64(netsim.DefaultWindow) * max(w.Conns, 1)
			if d := g.Down - w.Down; d >= -slack && d <= slack {
				g.Down = w.Down
			}
		}
		if g != w {
			return fmt.Sprintf("segment %d: got %+v, want %+v", i, s[i], want[i])
		}
	}
	return ""
}
