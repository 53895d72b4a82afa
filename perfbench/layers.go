package main

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/httpwire"
	"repro/internal/multipart"
	"repro/internal/ranges"
)

// perLayer lists every per-layer metric in report order. A traced run
// reports all of them; a layer its workload does not exercise reads 0.
var perLayer = []struct{ Name, Unit string }{
	{"httpwire.read_us_per_msg", "us"},
	{"httpwire.write_us_per_msg", "us"},
	{"httpwire.alloc_bytes_per_msg", "bytes"},
	{"netsim.read_wait_us_per_req", "us"},
	{"netsim.write_wait_us_per_req", "us"},
	{"netsim.dials_per_req", "count"},
	{"netsim.victim_bytes_per_req", "bytes"},
	{"netsim.attacker_bytes_per_req", "bytes"},
	{"origin.handle_us_per_req", "us"},
	{"origin.body_bytes_per_req", "bytes"},
	{"go.gc_cycles_per_kreq", "count"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.heap_live_peak_MB", "MB"},
	{"ranges.parse_us_per_req", "us"},
	{"ranges.specs_per_req", "count"},
	{"multipart.decode_us_per_resp", "us"},
	{"multipart.parts_per_resp", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.lookups_per_req", "count"},
	{"cdn.handle_self_us_per_req", "us"},
	{"cdn.upstream_fetches_per_req", "count"},
	{"cdn.upstream_reuse_ratio", "ratio"},
	{"transport.syscalls_per_req", "count"},
	{"transport.io_wait_us_per_req", "us"},
	{"transport.conns_accepted", "count"},
	{"vtime.prepare_s", "s"},
	{"vtime.loop_s", "s"},
	{"vtime.loop_ns_per_client", "ns"},
	{"vtime.replay_ns_per_client", "ns"},
	{"vtime.link_ns_per_transfer", "ns"},
	{"vtime.virtual_s", "s"},
	{"core.topology_build_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"ladder.unattributed_share", "ratio"},
	{"trace.untraced_req_per_s", "1/s"},
	{"trace.traced_req_per_s", "1/s"},
	{"trace.overhead_share", "ratio"},
}

// layerValues collects a traced run's per-layer figures by name.
type layerValues map[string]float64

// emit adds every per-layer metric to the report, 0 where unset.
func (v layerValues) emit(r *report) {
	for _, m := range perLayer {
		r.add(m.Name, v[m.Name], m.Unit)
	}
}

// overhead records the tracing overhead: traced versus untraced rate.
func (v layerValues) overhead(untraced, traced float64) {
	v["trace.untraced_req_per_s"] = untraced
	v["trace.traced_req_per_s"] = traced
	v["trace.overhead_share"] = 1 - div(traced, untraced)
}

// spanAgg totals the spans of one name.
type spanAgg struct {
	Count     int
	Dur, Self time.Duration
}

// analysis is the per-request view of a traced pass.
type analysis struct {
	ByName   map[string]*spanAgg
	Requests int
	Latency  []float64                // ms per request (root span)
	Covered  []float64                // ms per request that some layer span covers
	Layers   map[string]time.Duration // exclusive time per layer, all requests
}

// analyze groups spans into requests by following parents to a root
// named rootName recorded at index from or later, and totals duration
// and self time per span name. For the ladder it also splits each
// request's timeline between layers: every instant goes to the span
// open at that instant that started last, so the hops of a pipelined
// transfer, which run at once on different goroutines, are not counted
// twice, and instants no layer span covers stay unattributed.
func analyze(spans []span, rootName string, from int) analysis {
	self := selfTimes(spans)
	rootOf := make([]int32, len(spans))
	for i := range rootOf {
		rootOf[i] = -2 // unresolved
	}
	var resolve func(i int32) int32
	resolve = func(i int32) int32 {
		if rootOf[i] != -2 {
			return rootOf[i]
		}
		rootOf[i] = noSpan // guards against cycles while resolving
		p := spans[i].Parent
		switch {
		case p == noSpan && spans[i].Name == rootName && int(i) >= from:
			rootOf[i] = i
		case p != noSpan:
			rootOf[i] = resolve(p)
		}
		return rootOf[i]
	}
	a := analysis{ByName: map[string]*spanAgg{}, Layers: map[string]time.Duration{}}
	members := map[int32][]int32{}
	for i := range spans {
		root := resolve(int32(i))
		s := spans[i]
		if root == noSpan || s.End < s.Start {
			continue
		}
		agg := a.ByName[s.Name]
		if agg == nil {
			agg = &spanAgg{}
			a.ByName[s.Name] = agg
		}
		agg.Count++
		agg.Dur += time.Duration(s.dur())
		agg.Self += time.Duration(self[i])
		if int32(i) != root {
			members[root] = append(members[root], int32(i))
		}
	}
	for i, s := range spans {
		if rootOf[i] != int32(i) || s.End < s.Start {
			continue
		}
		a.Requests++
		a.Latency = append(a.Latency, ms(time.Duration(s.dur())))
		var covered time.Duration
		for _, piece := range exclusive(spans, s, members[int32(i)]) {
			a.Layers[layerOf(spans[piece.span].Name)] += piece.d
			covered += piece.d
		}
		a.Covered = append(a.Covered, ms(covered))
	}
	return a
}

// attribution is a stretch of a request's timeline given to one span.
type attribution struct {
	span int32
	d    time.Duration
}

// exclusive splits root's interval between the given spans: each
// instant goes to the latest-started span open at that instant.
func exclusive(spans []span, root span, ids []int32) []attribution {
	type edge struct {
		at    int64
		open  bool
		index int32
	}
	edges := make([]edge, 0, 2*len(ids))
	for _, id := range ids {
		s := spans[id]
		lo, hi := max(s.Start, root.Start), min(s.End, root.End)
		if hi > lo {
			edges = append(edges, edge{lo, true, id}, edge{hi, false, id})
		}
	}
	sort.Slice(edges, func(x, y int) bool { return edges[x].at < edges[y].at })
	var out []attribution
	open := map[int32]bool{}
	var last int64
	for _, e := range edges {
		if len(open) > 0 && e.at > last {
			var top int32 = noSpan
			for id := range open {
				if top == noSpan || spans[id].Start > spans[top].Start || (spans[id].Start == spans[top].Start && id > top) {
					top = id
				}
			}
			out = append(out, attribution{top, time.Duration(e.at - last)})
		}
		last = e.at
		if e.open {
			open[e.index] = true
		} else {
			delete(open, e.index)
		}
	}
	return out
}

// perReqUS is the named spans' total duration (or self time) per request, in µs.
func (a analysis) perReqUS(name string, selfTime bool) float64 {
	agg := a.ByName[name]
	if agg == nil {
		return 0
	}
	d := agg.Dur
	if selfTime {
		d = agg.Self
	}
	return div(float64(d)/1e3, float64(a.Requests))
}

// perSpanSelfUS is the named spans' mean self time, in µs.
func (a analysis) perSpanSelfUS(name string) float64 {
	agg := a.ByName[name]
	if agg == nil {
		return 0
	}
	return div(float64(agg.Self)/1e3, float64(agg.Count))
}

// emitSpans fills the layer figures the spans of a pass give, and the
// ladder: the share of median request latency that the median
// per-request sum of layer times (see analyze) leaves uncovered.
func (a analysis) emitSpans(v layerValues, r *report) {
	v["httpwire.read_us_per_msg"] = a.perSpanSelfUS("httpwire.read")
	v["httpwire.write_us_per_msg"] = a.perSpanSelfUS("httpwire.write")
	v["netsim.read_wait_us_per_req"] = a.perReqUS("netsim.read", false)
	v["netsim.write_wait_us_per_req"] = a.perReqUS("netsim.write", false)
	v["origin.handle_us_per_req"] = a.perReqUS("origin.handle", false)
	v["cdn.handle_self_us_per_req"] = a.perReqUS("cdn.handle", true)
	p50 := median(a.Latency)
	covered := median(a.Covered)
	v["ladder.unattributed_share"] = 1 - div(covered, p50)
	r.infof("ladder: %d traced requests, latency p50 %.3f ms, median layer time %.3f ms", a.Requests, p50, covered)
	for _, layer := range sortedKeys(a.Layers) {
		r.infof("ladder:   %-10s %9.1f us/req on the request timeline", layer, div(float64(a.Layers[layer])/1e3, float64(a.Requests)))
	}
	for _, name := range sortedKeys(a.ByName) {
		agg := a.ByName[name]
		r.infof("spans:    %-18s %7d spans  self %9.1f us/req  total %9.1f us/req", name, agg.Count,
			div(float64(agg.Self)/1e3, float64(a.Requests)), div(float64(agg.Dur)/1e3, float64(a.Requests)))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// clientCalls times the benchmark's own calls into ranges and
// multipart on each traced request's input and output.
type clientCalls struct {
	parses, specs, parseNs     atomic.Int64
	responses, parts, decodeNs atomic.Int64
}

// parse times ranges.Parse on a request's Range header.
func (c *clientCalls) parse(header string) {
	start := time.Now()
	set, err := ranges.Parse(header)
	c.parseNs.Add(int64(time.Since(start)))
	c.parses.Add(1)
	if err == nil {
		c.specs.Add(int64(len(set)))
	}
}

// decode times multipart.Decode on a multipart response body and
// returns the message (nil for a single-part response).
func (c *clientCalls) decode(resp *httpwire.Response) (*multipart.Message, error) {
	c.responses.Add(1)
	ct, _ := resp.Headers.Get("Content-Type")
	boundary, ok := multipart.ParseContentTypeValue(ct)
	if !ok {
		return nil, nil
	}
	start := time.Now()
	m, err := multipart.Decode(resp.Body, boundary)
	c.decodeNs.Add(int64(time.Since(start)))
	if err != nil {
		return nil, err
	}
	c.parts.Add(int64(len(m.Parts)))
	return m, nil
}

func (c *clientCalls) emit(v layerValues, requests int) {
	v["ranges.parse_us_per_req"] = div(float64(c.parseNs.Load())/1e3, float64(requests))
	v["ranges.specs_per_req"] = div(float64(c.specs.Load()), float64(c.parses.Load()))
	v["multipart.decode_us_per_resp"] = div(float64(c.decodeNs.Load())/1e3, float64(c.responses.Load()))
	v["multipart.parts_per_resp"] = div(float64(c.parts.Load()), float64(c.responses.Load()))
}

// cacheStats sums Cache.Stats over edges.
func cacheStats(cs []*cache.Cache) cache.Stats {
	var out cache.Stats
	for _, c := range cs {
		s := c.Stats()
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Bypasses += s.Bypasses
	}
	return out
}

// emitCache fills the cache figures from a Stats delta over requests.
func emitCache(v layerValues, before, after cache.Stats, requests int) {
	hits := float64(after.Hits - before.Hits)
	lookups := hits + float64(after.Misses-before.Misses) + float64(after.Bypasses-before.Bypasses)
	v["cache.hit_ratio"] = div(hits, lookups)
	v["cache.lookups_per_req"] = div(lookups, float64(requests))
}
