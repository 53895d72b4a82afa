package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/httpwire"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/resource"
	"repro/internal/vendor"
)

// sbrSizesMB are Table IV's resource sizes.
var sbrSizesMB = []int{1, 10, 25}

// setupRepeats is how many times an untraced run sets up; setup_s is
// the median. Workloads whose set-up is short repeat it more often.
const setupRepeats = 5

// sbrCell is one (vendor, size) cell of Table IV.
type sbrCell struct {
	Vendor  string
	SizeIdx int
	Size    int64
}

func (c sbrCell) String() string { return fmt.Sprintf("%s@%dMB", c.Vendor, sbrSizesMB[c.SizeIdx]) }

func sbrCells() []sbrCell {
	var out []sbrCell
	for _, p := range vendor.All() {
		for i, mb := range sbrSizesMB {
			out = append(out, sbrCell{Vendor: p.Name, SizeIdx: i, Size: int64(mb) * core.MiB})
		}
	}
	return out
}

func profile(name string) *vendor.Profile {
	p, ok := vendor.ByName(name)
	if !ok {
		panic("unknown vendor " + name) // the cell tables name only known vendors
	}
	return p
}

// checkSBR compares one probe's response bytes on the client and origin
// segments with Table IV. Azure's origin bytes above 8 MiB depend on
// how far the origin's writer got before the edge cut the transfer, so
// they are held to the engine-diff suite's one-window-per-request slack.
func checkSBR(c sbrCell, client, origin int64, requests int) string {
	exp := table4[c.Vendor][c.SizeIdx]
	if client != exp.Client {
		return fmt.Sprintf("%s: client bytes %d, want %d", c, client, exp.Client)
	}
	var tol int64
	if c.Vendor == "azure" && c.Size > 8<<20 {
		tol = int64(netsim.DefaultWindow) * int64(requests)
	}
	if d := origin - exp.Origin; d < -tol || d > tol {
		return fmt.Sprintf("%s: origin bytes %d, want %d±%d", c, origin, exp.Origin, tol)
	}
	f := measure.Amplification{VictimBytes: origin, AttackerBytes: client}.Factor()
	if tol == 0 && int(f+0.5) != exp.Factor {
		return fmt.Sprintf("%s: factor %.2f, Table IV %d", c, f, exp.Factor)
	}
	return ""
}

// sbrBench is the untraced sbr-bulk set-up: per client, one core
// topology per cell, primed the way the Table IV sweep primes them.
type sbrBench struct {
	cells   []sbrCell
	topos   [][]*core.SBRTopology // [client][cell]
	buildMs []float64
}

func sbrStores() []*resource.Store {
	stores := make([]*resource.Store, len(sbrSizesMB))
	for i, mb := range sbrSizesMB {
		stores[i] = core.NewStoreWith(int64(mb) * core.MiB)
	}
	return stores
}

func newSBRBench(rt *core.Runtime) (*sbrBench, error) {
	b := &sbrBench{cells: sbrCells()}
	stores := sbrStores()
	for c := 0; c < closedClients; c++ {
		row := make([]*core.SBRTopology, 0, len(b.cells))
		b.topos = append(b.topos, row)
		for _, cell := range b.cells {
			start := time.Now()
			topo, err := core.NewSBRTopology(profile(cell.Vendor), stores[cell.SizeIdx], core.SBROptions{OriginRangeSupport: true, Runtime: rt})
			if err != nil {
				b.close()
				return nil, fmt.Errorf("%s: %w", cell, err)
			}
			b.buildMs = append(b.buildMs, ms(time.Since(start)))
			b.topos[c] = append(b.topos[c], topo)
			if err := core.PrimeSizeHint(topo, core.TargetPath); err != nil {
				b.close()
				return nil, fmt.Errorf("%s: %w", cell, err)
			}
			// The warm-up object would otherwise sit in the edge cache.
			topo.Edge.Cache().Purge()
		}
	}
	return b, nil
}

func (b *sbrBench) close() {
	for _, row := range b.topos {
		for _, t := range row {
			t.Close()
		}
	}
}

// probe sends one cache-busted exploit probe through the program's own
// client, edge and origin and checks its bytes against Table IV.
func (b *sbrBench) probe(ctx context.Context, c int, p sbrProbe) outcome {
	cell := b.cells[p.Cell]
	topo := b.topos[c][p.Cell]
	start := time.Now()
	res, err := core.RunSBRCase(ctx, topo, core.TargetPath, core.SBRExploit(cell.Vendor, cell.Size), p.Buster)
	lat := time.Since(start)
	// Busted entries would pile up in the cache; nothing reads them again.
	topo.Edge.Cache().Purge()
	if err != nil {
		return outcome{Fail: fmt.Sprintf("%s: %v", cell, err)}
	}
	a := res.Amplification
	return outcome{Latency: lat, Fail: checkSBR(cell, a.AttackerBytes, a.VictimBytes, len(res.Responses))}
}

// setupRepeated runs build count times, closing all but the last
// result, and returns it with every set-up's duration.
func setupRepeated[T any](count int, build func() (T, error), closeFn func(T)) (T, []time.Duration, error) {
	var last T
	var times []time.Duration
	for i := 0; i < count; i++ {
		if i > 0 {
			closeFn(last)
		}
		runtime.GC() // start every set-up from the same heap state
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(start))
		last = v
	}
	return last, times, nil
}

func runSBRBulk(ctx context.Context, cfg config) (*report, error) {
	rep := &report{}
	rt := core.NewRuntime()
	repeats := setupRepeats
	if cfg.Trace {
		repeats = 1
	}
	b, setups, err := setupRepeated(repeats, func() (*sbrBench, error) { return newSBRBench(rt) }, (*sbrBench).close)
	if err != nil {
		return nil, err
	}
	defer b.close()
	gens := []*sbrGen{newSBRGen(cfg.Seed, 0, len(b.cells)), newSBRGen(cfg.Seed, 1, len(b.cells))}
	step := func(c int) outcome { return b.probe(ctx, c, gens[c].next()) }
	span := time.Duration(cfg.Seconds * float64(time.Second))
	if !cfg.Trace {
		m := measured{setups: setups, win: startWindows(span)}
		res := closedLoop(closedClients, span, &m.win.done, step)
		m.win.finish()
		res.record(rep)
		m.latencies, m.doneAt = res.Latencies, res.DoneAt
		m.emitEndToEnd(rep)
		return rep, nil
	}
	return tracedSBR(ctx, cfg, rt, b, step, span/2, rep)
}

// tracedSBR runs half the time on the program's loops (the untraced
// reference rate and GC figures), half on traced chains, checks the
// two move identical bytes, and reports the per-layer figures.
func tracedSBR(ctx context.Context, cfg config, rt *core.Runtime, b *sbrBench, step func(int) outcome, half time.Duration, rep *report) (*report, error) {
	v := layerValues{}
	v["core.topology_build_ms"] = median(b.buildMs)
	untracedRate := untracedHalf(v, rep, half, step)

	rec := newRecorder()
	stores := sbrStores()
	chains := make([][]*chain, closedClients)
	defer closeChains(chains)
	for c := range chains {
		for _, cell := range b.cells {
			ch, err := newChain(rt, stores[cell.SizeIdx], true, "client-cdn",
				[]chainHop{{Profile: profile(cell.Vendor), Addr: edgeAddr, UpSeg: "cdn-origin"}})
			if err != nil {
				return nil, err
			}
			chains[c] = append(chains[c], ch)
			warm := core.NewAttackRequest(core.TargetPath + "?warmup=1")
			if _, err := ch.tn.fetch(ch.net, edgeAddr, ch.clientSeg, warm, noSpan); err != nil {
				return nil, fmt.Errorf("%s warm-up: %w", cell, err)
			}
			ch.edges[0].Cache().Purge()
			ch.tn.rec.Store(rec)
			ch.tn.keep.Store(c == 0)
		}
	}

	// Equivalence: one fixed round over every cell on both loops.
	var reqs []*httpwire.Request
	var resps []*httpwire.Response
	for i, cell := range b.cells {
		p := sbrProbe{Cell: i, Buster: fmt.Sprintf("eq%06d", i)}
		topo := b.topos[0][i]
		want := snapSegs(topo.ClientSeg, topo.OriginSeg)
		if o := b.probe(ctx, 0, p); o.Fail != "" {
			rep.fail("equivalence reference %s", o.Fail)
		}
		want = want.since(topo.ClientSeg, topo.OriginSeg)
		ch := chains[0][i]
		got := snapSegs(ch.clientSeg, ch.upSegs[0])
		o, clientResps := tracedSBRProbe(ch, cell, p, rec, 0, nil)
		if o.Fail != "" {
			rep.fail("equivalence traced %s", o.Fail)
		}
		got = got.since(ch.clientSeg, ch.upSegs[0])
		rep.Attempted += 2
		if f := got.diff(want, cell.Vendor == "azure" && cell.Size > 8<<20); f != "" {
			rep.fail("%s: traced loops moved different bytes: %s", cell, f)
		}
		q, r := sampleMessages(ch.tn.sample(), clientResps, ch.origin.Handle)
		reqs, resps = append(reqs, q...), append(resps, r...)
	}
	alloc, err := allocPerMsg(reqs, resps)
	if err != nil {
		return nil, err
	}
	v["httpwire.alloc_bytes_per_msg"] = alloc

	var calls clientCalls
	gens := []*sbrGen{newSBRGen(cfg.Seed, 0, len(b.cells)), newSBRGen(cfg.Seed, 1, len(b.cells))}
	tracedRate, requests := tracedHalf(v, rep, half, rec, "client.probe", chains, func(c int, id uint64) (outcome, segSnap) {
		p := gens[c].next()
		ch := chains[c][p.Cell]
		before := snapSegs(ch.clientSeg, ch.upSegs[0])
		o, _ := tracedSBRProbe(ch, b.cells[p.Cell], p, rec, id, &calls)
		return o, before.since(ch.clientSeg, ch.upSegs[0])
	})
	calls.emit(v, requests)
	v.overhead(untracedRate, tracedRate)
	v.emit(rep)
	rep.Spans = rec.snapshot()
	return rep, nil
}

// tracedSBRProbe is core.RunSBRCase rebuilt on a traced chain: the
// probe's requests under one root span, then the benchmark's own
// ranges and multipart calls on its input and output, outside it.
func tracedSBRProbe(ch *chain, cell sbrCell, p sbrProbe, rec *recorder, id uint64, calls *clientCalls) (outcome, []*httpwire.Response) {
	exploit := core.SBRExploit(cell.Vendor, cell.Size)
	target := core.TargetPath + "?cb=" + p.Buster
	before := snapSegs(ch.clientSeg, ch.upSegs[0])
	var resps []*httpwire.Response
	start := time.Now()
	root := rec.begin("client.probe", id, noSpan, 0)
	for i := 0; i < exploit.Repeat; i++ {
		req := core.NewAttackRequest(target)
		req.Headers.Add("Range", exploit.RangeHeader)
		resp, err := ch.tn.fetch(ch.net, edgeAddr, ch.clientSeg, req, root)
		if err != nil {
			rec.end(root)
			ch.edges[0].Cache().Purge()
			return outcome{Fail: fmt.Sprintf("%s: %v", cell, err)}, nil
		}
		resps = append(resps, resp)
	}
	rec.end(root)
	lat := time.Since(start)
	ch.edges[0].Cache().Purge()
	d := before.since(ch.clientSeg, ch.upSegs[0])
	o := outcome{Latency: lat, Fail: checkSBR(cell, d[0].Down, d[1].Down, len(resps))}
	if calls != nil {
		calls.parse(exploit.RangeHeader)
		for _, resp := range resps {
			if _, err := calls.decode(resp); err != nil && o.Fail == "" {
				o.Fail = fmt.Sprintf("%s: multipart: %v", cell, err)
			}
		}
	}
	return o, resps
}
