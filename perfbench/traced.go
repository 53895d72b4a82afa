package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cache"
)

// untracedHalf runs step on the program's own loops for half and
// records the Go runtime's figures over it; it returns the rate, the
// reference the traced rate is compared with.
func untracedHalf(v layerValues, rep *report, half time.Duration, step func(int) outcome) float64 {
	runtime.GC()
	heap := watchHeap(5 * time.Millisecond)
	before := takeSnap()
	res := closedLoop(closedClients, half, nil, step)
	after := takeSnap()
	emitGo(v, before, after, len(res.Latencies), heap.done())
	res.record(rep)
	return div(float64(len(res.Latencies)), after.at.Sub(before.at).Seconds())
}

// tracedHalf runs step on traced chains for half and fills the figures
// the spans and the chains' counters give. step returns the segment
// deltas of its request: the attacker-side segment, the victim segment,
// then any others. It returns the traced rate and the traced requests.
func tracedHalf(v layerValues, rep *report, half time.Duration, rec *recorder, root string, chains [][]*chain, step func(c int, id uint64) (outcome, segSnap)) (float64, int) {
	mark := rec.len()
	var ids atomic.Uint64
	var victim, attacker, dials atomic.Int64
	before := chainTotals(chains)
	start := time.Now()
	res := closedLoop(closedClients, half, nil, func(c int) outcome {
		o, d := step(c, ids.Add(1))
		attacker.Add(d[0].Down)
		victim.Add(d[1].Down)
		for _, s := range d {
			dials.Add(s.Conns)
		}
		return o
	})
	rate := div(float64(len(res.Latencies)), time.Since(start).Seconds())
	res.record(rep)
	after := chainTotals(chains)

	a := analyze(rec.snapshot(), root, mark)
	a.emitSpans(v, rep)
	n := float64(res.Attempted)
	upstream := after.upstream - before.upstream
	v["origin.body_bytes_per_req"] = div(float64(after.body-before.body), n)
	v["cdn.upstream_fetches_per_req"] = div(float64(upstream), n)
	v["netsim.dials_per_req"] = div(float64(dials.Load()), n)
	v["netsim.victim_bytes_per_req"] = div(float64(victim.Load()), n)
	v["netsim.attacker_bytes_per_req"] = div(float64(attacker.Load()), n)
	emitCache(v, before.cache, after.cache, res.Attempted)
	return rate, a.Requests
}

// totals are counters summed over every traced chain.
type totals struct {
	upstream, body int64 // requests served by any node behind an edge, origin body bytes
	cache          cache.Stats
}

func chainTotals(chains [][]*chain) totals {
	var t totals
	var cs []*cache.Cache
	for _, row := range chains {
		for _, ch := range row {
			t.upstream += ch.tn.st.upstreamReqs.Load()
			t.body += ch.tn.st.bodyBytes.Load()
			for _, e := range ch.edges {
				cs = append(cs, e.Cache())
			}
		}
	}
	t.cache = cacheStats(cs)
	return t
}

func closeChains(chains [][]*chain) {
	for _, row := range chains {
		for _, ch := range row {
			ch.close()
		}
	}
}
