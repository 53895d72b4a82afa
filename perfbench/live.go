package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdn"
	"repro/internal/core"
	"repro/internal/httpwire"
	"repro/internal/netsim"
	"repro/internal/origin"
	"repro/internal/resource"
	"repro/internal/transport"
)

// The live-tcp workload: an origin and an edge served by transport.ServeOn
// on 127.0.0.1, the edge fetching upstream over transport.Dialer with a
// connection pool, driven open-loop over liveConns keep-alive client
// connections. Traffic crosses the host's loopback interface, not a
// real link. Benign reads come from workload.Generator.Mixed over the
// hot objects; SBR probes bust the cache on the miss object. Every
// object is 16 KB, so the edge's default cache (4096 entries) holds at
// most 64 MB however many probes a run sends.
const (
	liveConns      = 2
	liveStream     = 7 // input stream of the fixed-rate phase
	liveHotObjects = 16
	liveHotSize    = 16 << 10
	liveMissSize   = 16 << 10
	liveMissRange  = "bytes=0-0"
	liveWarmMisses = 400

	// liveRate is the fixed offered rate, requests per second, and
	// liveMissShare the share of them that are SBR probes. Both are
	// benchmark settings, not paper figures. The site saturates near
	// 30000/s on a 2-vCPU Xeon host. At 6000/s about 3% of requests
	// waited on garbage collection (p98 3 ms against p95 1.2 ms; the
	// tail went with GOGC=400), so p99 sat in that tail and swung between
	// 2 and 6 ms with the host's speed. At 2000/s the tail holds under 1%
	// of requests and p99 lies in the body of the distribution.
	liveRate      = 2000
	liveMissShare = 0.2
	// liveLimit is the p99 latency limit behind max_ok_rps.
	liveLimit = 50 * time.Millisecond
	// liveLagLimit is the generator lag p99 above which a run is marked
	// invalid: the generator fell behind its schedule.
	liveLagLimit = 2 * time.Millisecond
	// The max_ok_rps ladder: offered rates stepping by ladderStep from
	// ladderStart until the limit is bracketed, then bisection over the
	// remaining steps; every step is held for an equal share of half the
	// run.
	ladderStart  = 7.5 * liveRate
	ladderStep   = 1.2
	ladderSteps  = 12
	ladderBisect = 4
)

func hotPath(i int) string { return "/hot/" + strconv.Itoa(i) + ".bin" }

func hotPaths() []string {
	paths := make([]string, liveHotObjects)
	for i := range paths {
		paths[i] = hotPath(i)
	}
	return paths
}

const missPath = "/miss.bin"

// missProbe is one SBR probe in workload.AttackSBRStream's shape: a
// one-byte range of the miss object under a fresh cache-busting query.
func missProbe(buster string) *httpwire.Request {
	req := core.NewAttackRequest(missPath + "?cb=" + buster)
	req.Headers.Add("Range", liveMissRange)
	return req
}

// liveSite is one set-up of the live topology.
type liveSite struct {
	store     *resource.Store
	originL   net.Listener
	edgeL     net.Listener
	origin    *origin.Server
	edge      *cdn.Edge
	serving   sync.WaitGroup
	clientSeg *netsim.Segment // edge accept side
	upSeg     *netsim.Segment // edge -> origin
	clients   []*origin.Client
	buildMs   float64
	tn        *tracedNet // nil for the program's own loops
}

// newLiveSite starts origin and edge on loopback. With tn set, both are
// served by the rebuilt traced loops and the edge dials through the
// tracing dialer; otherwise by the program's ServeConn.
func newLiveSite(rt *core.Runtime, tn *tracedNet) (*liveSite, error) {
	start := time.Now()
	s := &liveSite{store: resource.NewStore(), tn: tn,
		clientSeg: netsim.NewSegmentIn(rt.Metrics, "client-cdn"),
		upSeg:     netsim.NewSegmentIn(rt.Metrics, "cdn-origin")}
	for i := 0; i < liveHotObjects; i++ {
		s.store.AddSynthetic(hotPath(i), liveHotSize, core.OctetStream)
	}
	s.store.AddSynthetic(missPath, liveMissSize, core.OctetStream)
	osrv := origin.NewServer(s.store, origin.Config{RangeSupport: true, Trace: rt.Trace, Metrics: rt.Metrics})
	s.origin = osrv
	var err error
	if s.originL, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("listen origin: %w", err)
	}
	originAddr := s.originL.Addr().String()
	var up cdn.UpstreamDialer = transport.Dialer{}
	if tn != nil {
		up = dialer{t: tn, inner: up}
	}
	s.edge, err = cdn.NewEdge(cdn.Config{
		Profile:      profile("akamai"),
		Dialer:       up,
		UpstreamAddr: originAddr,
		UpstreamSeg:  s.upSeg,
		UpstreamPool: &cdn.PoolConfig{Size: liveConns},
		Trace:        rt.Trace,
		Metrics:      rt.Metrics,
	})
	if err != nil {
		s.originL.Close()
		return nil, err
	}
	if s.edgeL, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		s.originL.Close()
		return nil, fmt.Errorf("listen edge: %w", err)
	}
	var originH, edgeH transport.ConnHandler = osrv, s.edge
	if tn != nil {
		originH = &server{t: tn, addr: originAddr, span: "origin.handle", behind: true, handle: osrv.Handle}
		edgeH = &server{t: tn, addr: s.edgeL.Addr().String(), upstream: originAddr, span: "cdn.handle", handle: s.edge.Handle}
	}
	s.serve(s.originL, originH, nil)
	s.serve(s.edgeL, edgeH, s.clientSeg)
	for i := 0; i < liveConns; i++ {
		s.clients = append(s.clients, origin.NewClient(transport.Dialer{}, s.edgeL.Addr().String(), nil))
	}
	s.buildMs = ms(time.Since(start))
	// Warm-up: every hot object cached, every connection and pool slot open.
	for i := 0; i < liveHotObjects; i++ {
		for _, c := range s.clients {
			if _, f := s.do(c, core.NewAttackRequest(hotPath(i))); f != "" {
				s.close()
				return nil, errors.New("warm-up: " + f)
			}
		}
	}
	for i := 0; i < liveWarmMisses; i++ {
		if _, f := s.do(s.clients[i%liveConns], missProbe(fmt.Sprintf("warm%04d", i))); f != "" {
			s.close()
			return nil, errors.New("warm-up: " + f)
		}
	}
	return s, nil
}

func (s *liveSite) serve(l net.Listener, h transport.ConnHandler, seg *netsim.Segment) {
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = transport.ServeOn(l, h, seg) // returns once the listener closes
	}()
}

// close stops both servers and waits for their accept loops.
func (s *liveSite) close() {
	for _, c := range s.clients {
		c.Close()
	}
	s.edgeL.Close()
	s.originL.Close()
	s.serving.Wait()
	s.edge.Close()
}

// do sends one request and checks the reply against the stored object:
// a whole-object GET comes back 200 with every byte, a single range
// 206 with its Content-Range and exactly that slice.
func (s *liveSite) do(c *origin.Client, req *httpwire.Request) (*httpwire.Response, string) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Sprintf("%s: %v", req.Target, err)
	}
	res, ok := s.store.Get(req.Path())
	if !ok {
		return resp, fmt.Sprintf("%s: no such object in the store", req.Target)
	}
	size := int64(len(res.Data))
	rangeHdr, _ := req.Headers.Get("Range")
	first, last, err := singleRange(rangeHdr, size)
	if err != nil {
		return resp, fmt.Sprintf("%s: %v", req.Target, err)
	}
	wantStatus, wantRange := httpwire.StatusOK, ""
	if rangeHdr != "" {
		wantStatus = httpwire.StatusPartialContent
		wantRange = fmt.Sprintf("bytes %d-%d/%d", first, last, size)
	}
	cr, _ := resp.Headers.Get("Content-Range")
	switch {
	case resp.StatusCode != wantStatus:
		return resp, fmt.Sprintf("%s %s: status %d, want %d", req.Target, rangeHdr, resp.StatusCode, wantStatus)
	case cr != wantRange:
		return resp, fmt.Sprintf("%s %s: Content-Range %q, want %q", req.Target, rangeHdr, cr, wantRange)
	case !bytes.Equal(resp.Body, res.Data[first:last+1]):
		return resp, fmt.Sprintf("%s %s: body of %d bytes, want %d", req.Target, rangeHdr, len(resp.Body), last+1-first)
	}
	return resp, ""
}

// singleRange resolves a Range header of at most one satisfiable range
// against an object of size bytes, independently of the program's
// ranges package. No header means the whole object.
func singleRange(h string, size int64) (first, last int64, err error) {
	if h == "" {
		return 0, size - 1, nil
	}
	spec, ok := strings.CutPrefix(h, "bytes=")
	a, b, dash := strings.Cut(spec, "-")
	if !ok || !dash || strings.Contains(spec, ",") {
		return 0, 0, fmt.Errorf("not a single byte range: %q", h)
	}
	if a == "" { // suffix: the last b bytes
		n, err := strconv.ParseInt(b, 10, 64)
		if err != nil || n <= 0 {
			return 0, 0, fmt.Errorf("bad suffix range %q", h)
		}
		return max(size-n, 0), size - 1, nil
	}
	if first, err = strconv.ParseInt(a, 10, 64); err != nil || first >= size {
		return 0, 0, fmt.Errorf("unsatisfiable range %q of %d bytes", h, size)
	}
	last = size - 1
	if b != "" {
		if last, err = strconv.ParseInt(b, 10, 64); err != nil || last < first {
			return 0, 0, fmt.Errorf("bad range %q", h)
		}
		last = min(last, size-1)
	}
	return first, last, nil
}

// loopRun is one open-loop pass: a sample per scheduled request (its
// offsets counted from start), the failed checks, and how many requests
// were still queued when patience ran out.
type loopRun struct {
	start   time.Time
	samples []openLoopSample
	fails   []string
	backlog int
}

// openLoop offers sched to the site: one generator releases each
// request at its due time, liveConns workers each send over their own
// connection. It returns once every request completed or, when
// patience runs out after the last due time, with the backlog left.
func (s *liveSite) openLoop(sched []liveReq, patience time.Duration, rec *recorder, done *atomic.Int64) loopRun {
	samples := make([]openLoopSample, len(sched))
	// Sized to the number of sends, so the generator never blocks and a
	// stalled site shows as queueing delay, not as generator lag.
	queue := make(chan int, len(sched))
	var stop atomic.Bool
	fails := make([][]string, liveConns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < liveConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				if stop.Load() {
					continue
				}
				var root int32 = noSpan
				if rec != nil {
					root = rec.begin("client.request", uint64(i+1), noSpan, 0)
					if s.tn != nil {
						s.tn.lk.put(s.edgeL.Addr().String(), sched[i].Req.Target, root)
					}
				}
				_, f := s.do(s.clients[w], sched[i].Req)
				rec.end(root)
				samples[i].Done = time.Since(start)
				if f != "" {
					fails[w] = append(fails[w], f)
				} else if done != nil {
					done.Add(1)
				}
			}
		}(w)
	}
	for i, r := range sched {
		if d := r.Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		samples[i].Due = r.Due
		samples[i].Released = time.Since(start)
		queue <- i
	}
	close(queue)
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	run := loopRun{start: start, samples: samples}
	last := time.Duration(0)
	if len(sched) > 0 {
		last = sched[len(sched)-1].Due
	}
	select {
	case <-finished:
	case <-time.After(last + patience - time.Since(start)):
		stop.Store(true)
		<-finished
		for _, smp := range samples {
			if smp.Done == 0 {
				run.backlog++
			}
		}
	}
	for _, f := range fails {
		run.fails = append(run.fails, f...)
	}
	return run
}

// count adds the pass's requests and failed checks to rep; a backlog
// means the site could not keep up with the offered rate.
func (run loopRun) count(rep *report, label string, rate float64) {
	rep.Attempted += len(run.samples)
	for _, f := range run.fails {
		rep.fail("%s%s", label, f)
	}
	if run.backlog > 0 {
		rep.fail("%s%d requests still queued a second after the last was due at %.0f/s", label, run.backlog, rate)
	}
}

func latenciesMS(samples []openLoopSample) (lat, lag []float64) {
	for _, s := range samples {
		if s.Done > 0 {
			lat = append(lat, ms(s.Latency()))
		}
		lag = append(lag, ms(s.Lag()))
	}
	return lat, lag
}

// maxOKRate finds the highest offered rate whose p99 meets liveLimit
// with no backlog, each ladder step a fresh open-loop pass of hold.
func (s *liveSite) maxOKRate(seed int64, hold time.Duration, r *report) (float64, string) {
	step := 0
	lo, hi, bracketed := climbLadder(func(rate float64) bool {
		sched := liveSchedule(seed, 100+step, rate, hold, liveMissShare)
		run := s.openLoop(sched, liveLimit, nil, nil)
		r.Attempted += len(sched)
		for _, f := range run.fails {
			r.fail("ladder %.0f/s: %s", rate, f)
		}
		lat, _ := latenciesMS(run.samples)
		p99 := tailPercentile(lat, 0.99)
		r.infof("ladder step %2d: offered %7.1f/s  p%.2f %.2f ms of n=%d  backlog %d", step, rate, 100*p99.Q, p99.Value, p99.N, run.backlog)
		step++
		return run.backlog == 0 && len(run.fails) == 0 && p99.Value <= ms(liveLimit)
	})
	if !bracketed {
		r.fail("max_ok_rps: %d ladder steps from %.0f/s did not bracket the p99 limit %v", ladderSteps-ladderBisect, float64(ladderStart), liveLimit)
		return max(lo, hi), "not bracketed"
	}
	return lo, fmt.Sprintf("p99 limit %v met at %.0f/s, missed at %.0f/s", liveLimit, lo, hi)
}

// climbLadder runs ladderSteps steps of ok over offered rates and
// returns the highest rate that passed and the failing rate above it.
// From ladderStart the coarse steps climb by ladderStep while rates
// pass, or descend while they fail, until a passing rate lies next to a
// failing one; one miss on the climb can be a hiccup, so the climb stops
// only after two misses in a row. Bisection then narrows the bracket.
// bracketed is false when the coarse steps found no passing rate below
// a failing one: the result is then a failed check, not a value.
func climbLadder(ok func(rate float64) bool) (lo, hi float64, bracketed bool) {
	coarse, step := ladderSteps-ladderBisect, 1
	if ok(ladderStart) {
		lo = ladderStart
		for rate, misses := ladderStart*ladderStep, 0; step < coarse && misses < 2; rate *= ladderStep {
			step++
			if ok(rate) {
				lo, hi, misses = rate, 0, 0
			} else {
				misses++
				if hi == 0 {
					hi = rate
				}
			}
		}
	} else {
		hi = ladderStart
		for rate := ladderStart / ladderStep; step < coarse && lo == 0; rate /= ladderStep {
			step++
			if ok(rate) {
				lo = rate
			} else {
				hi = rate
			}
		}
	}
	if lo == 0 || hi == 0 {
		return lo, hi, false
	}
	for ; step < ladderSteps; step++ {
		mid := math.Sqrt(lo * hi)
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi, true
}

func runLiveTCP(ctx context.Context, cfg config) (*report, error) {
	rep := &report{}
	rt := core.NewRuntime()
	// Set-up here takes a few hundredths of a second, so more repeats
	// keep its median steady.
	repeats := 3 * setupRepeats
	if cfg.Trace {
		repeats = 1
	}
	site, setups, err := setupRepeated(repeats, func() (*liveSite, error) { return newLiveSite(rt, nil) }, (*liveSite).close)
	if err != nil {
		return nil, err
	}
	defer site.close()
	span := time.Duration(cfg.Seconds * float64(time.Second))
	fixed := span / 2
	if cfg.Trace {
		return tracedLive(ctx, cfg, rt, site, fixed, rep)
	}
	m := measured{setups: setups, win: startWindows(fixed)}
	sched := liveSchedule(cfg.Seed, liveStream, liveRate, fixed, liveMissShare)
	run := site.openLoop(sched, time.Second, nil, &m.win.done)
	m.win.finish()
	run.count(rep, "", liveRate)
	// Latency covers every completed request of the pass, timed from
	// its due instant.
	for _, smp := range run.samples {
		if smp.Done > 0 {
			m.latencies = append(m.latencies, ms(smp.Latency()))
			m.doneAt = append(m.doneAt, run.start.Add(smp.Done))
		}
	}
	// The generator's lag marks the run, it is not a program result.
	_, lag := latenciesMS(run.samples)
	lagTail := tailPercentile(lag, 0.99)
	m.latNote = fmt.Sprintf("loadgen.lag_p99_ms %.3f: run valid", lagTail.Value)
	if lagTail.Value > ms(liveLagLimit) {
		m.latNote = fmt.Sprintf("loadgen.lag_p99_ms %.3f above %v: run INVALID", lagTail.Value, liveLagLimit)
	}
	rep.infof("generator lag p50 %.3f ms, p%.2f %.3f ms of n=%d (limit %v)", median(lag), 100*lagTail.Q, lagTail.Value, lagTail.N, liveLagLimit)
	m.maxOKRPS, m.okNote = site.maxOKRate(cfg.Seed, (span-fixed)/ladderSteps, rep)
	m.emitEndToEnd(rep)
	return rep, nil
}

// tracedLive runs the fixed rate on the program's loops and again on
// the traced loops, and reports the per-layer figures.
func tracedLive(ctx context.Context, cfg config, rt *core.Runtime, site *liveSite, fixed time.Duration, rep *report) (*report, error) {
	v := layerValues{}
	v["core.topology_build_ms"] = site.buildMs
	half := fixed
	sched := liveSchedule(cfg.Seed, liveStream, liveRate, half, liveMissShare)
	wantUp, wantClient := site.upSeg.Traffic(), site.clientSeg.Traffic()
	heap := watchHeap(5 * time.Millisecond)
	before := takeSnap()
	plain := site.openLoop(sched, time.Second, nil, nil)
	after := takeSnap()
	plain.count(rep, "", liveRate)
	lat, lag := latenciesMS(plain.samples)
	emitGo(v, before, after, len(lat), heap.done())
	untracedRate := div(float64(len(lat)), after.at.Sub(before.at).Seconds())
	v["loadgen.lag_p99_ms"] = tailPercentile(lag, 0.99).Value

	tn := newTracedNet("transport")
	rec := newRecorder()
	ts, err := newLiveSite(rt, tn)
	if err != nil {
		return nil, err
	}
	defer ts.close()
	tn.rec.Store(rec)
	cacheBefore := ts.edge.Cache().Stats()
	upBefore, clientBefore := ts.upSeg.Traffic(), ts.clientSeg.Traffic()
	dialsBefore := tn.st.dials.Load()
	st := &tn.st
	reads0, writes0, wait0 := st.reads.Load(), st.writes.Load(), st.readNanos.Load()
	start := time.Now()
	traced := ts.openLoop(sched, time.Second, rec, nil)
	elapsed := time.Since(start)
	traced.count(rep, "traced: ", liveRate)
	tlat, _ := latenciesMS(traced.samples)
	tracedRate := div(float64(len(tlat)), elapsed.Seconds())
	n := float64(len(sched))
	up, client := ts.upSeg.Since(upBefore), ts.clientSeg.Since(clientBefore)
	// The same schedule from the same warm state moves the same bytes
	// (when both passes served all of it).
	rep.Attempted++
	if u, c := site.upSeg.Since(wantUp), site.clientSeg.Since(wantClient); plain.backlog == 0 && traced.backlog == 0 && (u != up || c != client) {
		rep.fail("traced loops moved different bytes: upstream %+v vs %+v, client %+v vs %+v", up, u, client, c)
	}
	a := analyze(rec.snapshot(), "client.request", 0)
	a.emitSpans(v, rep)
	emitCache(v, cacheBefore, ts.edge.Cache().Stats(), len(sched))
	fetches := float64(st.upstreamReqs.Load())
	v["cdn.upstream_fetches_per_req"] = div(fetches, n)
	v["cdn.upstream_reuse_ratio"] = 1 - div(float64(tn.st.dials.Load()-dialsBefore), fetches)
	v["transport.syscalls_per_req"] = div(float64(st.reads.Load()-reads0+st.writes.Load()-writes0), n)
	v["transport.io_wait_us_per_req"] = div(float64(st.readNanos.Load()-wait0)/1e3, n)
	v["transport.conns_accepted"] = float64(st.conns.Load())
	v["origin.body_bytes_per_req"] = div(float64(st.bodyBytes.Load()), fetches)
	v["netsim.victim_bytes_per_req"] = div(float64(up.Down), n)
	v["netsim.attacker_bytes_per_req"] = div(float64(client.Down), n)
	// Sample messages: one hit and one miss, every hop's request and
	// the responses the client and the origin gave.
	tn.keep.Store(true)
	var clientResps []*httpwire.Response
	for i, r := range []*httpwire.Request{core.NewAttackRequest(hotPath(0)), missProbe("sample00")} {
		rep.Attempted++
		resp, f := ts.do(ts.clients[i], r)
		if f != "" {
			rep.fail("sample: %s", f)
			continue
		}
		clientResps = append(clientResps, resp)
	}
	reqs, resps := sampleMessages(tn.sample(), clientResps, ts.origin.Handle)
	alloc, err := allocPerMsg(reqs, resps)
	if err != nil {
		return nil, err
	}
	v["httpwire.alloc_bytes_per_msg"] = alloc
	v.overhead(untracedRate, tracedRate)
	v.emit(rep)
	rep.Spans = rec.snapshot()
	return rep, nil
}
