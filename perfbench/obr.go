package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/httpwire"
	"repro/internal/measure"
	"repro/internal/multipart"
	"repro/internal/netsim"
	"repro/internal/resource"
)

// obrResourceSize is Table V's 1 KB target.
const obrResourceSize = 1024

// checkOBR compares one OBR request with Table V and decodes its
// multipart reply, which must hold exactly n parts, each the resource
// slice its Content-Range names.
func checkOBR(exp obrExpect, n int, a measure.Amplification, resp *httpwire.Response, msg *multipart.Message, res *resource.Resource) string {
	name := exp.FCDN + ">" + exp.BCDN
	switch {
	case n != exp.N:
		return fmt.Sprintf("%s: planned n %d, want %d", name, n, exp.N)
	case a.VictimBytes != exp.Victim || a.AttackerBytes != exp.Attacker:
		return fmt.Sprintf("%s: bytes %d/%d, want %d/%d", name, a.VictimBytes, a.AttackerBytes, exp.Victim, exp.Attacker)
	case fmt.Sprintf("%.2f", a.Factor()) != exp.Factor:
		return fmt.Sprintf("%s: factor %.2f, Table V %s", name, a.Factor(), exp.Factor)
	case resp.StatusCode != httpwire.StatusPartialContent:
		return fmt.Sprintf("%s: status %d", name, resp.StatusCode)
	case msg == nil || len(msg.Parts) != n:
		return fmt.Sprintf("%s: reply is not %d parts", name, n)
	case msg.CompleteLength != res.Size():
		return fmt.Sprintf("%s: complete length %d", name, msg.CompleteLength)
	}
	for i, p := range msg.Parts {
		if !bytes.Equal(p.Data, res.Slice(p.Window)) {
			return fmt.Sprintf("%s: part %d is not the resource slice %+v", name, i, p.Window)
		}
	}
	return ""
}

// obrBench is the untraced obr-cascade set-up: per client, one core
// cascade topology per Table V pair.
type obrBench struct {
	store   *resource.Store
	res     *resource.Resource
	topos   [][]*core.OBRTopology // [client][pair]
	buildMs []float64
}

// newOBRBench builds the cascades and warms each with one checked
// request, which counts as attempted.
func newOBRBench(ctx context.Context, rt *core.Runtime, rep *report) (*obrBench, error) {
	b := &obrBench{store: core.NewStoreWith(obrResourceSize)}
	res, ok := b.store.Get(core.TargetPath)
	if !ok {
		return nil, fmt.Errorf("store has no %s", core.TargetPath)
	}
	b.res = res
	for c := 0; c < closedClients; c++ {
		b.topos = append(b.topos, nil)
		for _, p := range obrPairs {
			start := time.Now()
			topo, err := core.NewOBRTopologyOpts(profile(p.FCDN), profile(p.BCDN), b.store, core.OBROptions{Runtime: rt})
			if err != nil {
				b.close()
				return nil, err
			}
			b.buildMs = append(b.buildMs, ms(time.Since(start)))
			b.topos[c] = append(b.topos[c], topo)
		}
	}
	for c := range b.topos {
		for i := range obrPairs {
			rep.Attempted++
			if o := b.request(ctx, c, i); o.Fail != "" {
				rep.fail("warm-up %s", o.Fail)
			}
		}
	}
	return b, nil
}

func (b *obrBench) close() {
	for _, row := range b.topos {
		for _, t := range row {
			t.Close()
		}
	}
}

// resetSegs zeroes segment counters between requests. Table V's origin
// bytes are the capture-view estimate, which frames a segment's running
// total into packets; it reproduces the table's figures only on counts
// that start from zero, as they do on the table's fresh cascades.
func resetSegs(segs ...*netsim.Segment) {
	for _, s := range segs {
		s.Reset()
	}
}

// request sends one max-n OBR request through the program's client and
// cascade, then decodes and checks the reply outside the timed part.
func (b *obrBench) request(ctx context.Context, c, pair int) outcome {
	exp := obrPairs[pair]
	topo := b.topos[c][pair]
	resetSegs(topo.ClientSeg, topo.FcdnBcdnSeg, topo.BcdnOriginSeg)
	start := time.Now()
	res, err := core.RunOBRContext(ctx, topo, core.TargetPath, 0)
	lat := time.Since(start)
	// Each request must reach the origin, as in Table V's fresh cascade.
	topo.BCDN.Cache().Purge()
	if err != nil {
		return outcome{Fail: fmt.Sprintf("%s>%s: %v", exp.FCDN, exp.BCDN, err)}
	}
	msg, err := (&clientCalls{}).decode(res.Response)
	if err != nil {
		return outcome{Fail: fmt.Sprintf("%s>%s: multipart: %v", exp.FCDN, exp.BCDN, err)}
	}
	if res.Parts != res.Case.N {
		return outcome{Fail: fmt.Sprintf("%s>%s: %d parts counted, n %d", exp.FCDN, exp.BCDN, res.Parts, res.Case.N)}
	}
	return outcome{Latency: lat, Fail: checkOBR(exp, res.Case.N, res.Amplification, res.Response, msg, b.res)}
}

func runOBRCascade(ctx context.Context, cfg config) (*report, error) {
	rep := &report{}
	rt := core.NewRuntime()
	repeats := setupRepeats
	if cfg.Trace {
		repeats = 1
	}
	b, setups, err := setupRepeated(repeats, func() (*obrBench, error) { return newOBRBench(ctx, rt, rep) }, (*obrBench).close)
	if err != nil {
		return nil, err
	}
	defer b.close()
	order := []*cycle{newCycle(streamRNG(cfg.Seed, 0), len(obrPairs)), newCycle(streamRNG(cfg.Seed, 1), len(obrPairs))}
	step := func(c int) outcome { return b.request(ctx, c, order[c].next()) }
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

	half := span / 2
	v := layerValues{}
	v["core.topology_build_ms"] = median(b.buildMs)
	untracedRate := untracedHalf(v, rep, half, step)

	rec := newRecorder()
	chains := make([][]*chain, closedClients)
	defer closeChains(chains)
	for c := range chains {
		for _, p := range obrPairs {
			ch, err := newOBRChain(rt, b.store, p)
			if err != nil {
				return nil, err
			}
			ch.tn.rec.Store(rec)
			ch.tn.keep.Store(c == 0)
			chains[c] = append(chains[c], ch)
		}
	}
	var reqs []*httpwire.Request
	var resps []*httpwire.Response
	for i, p := range obrPairs {
		// Both requests start from zeroed segments, so totals are deltas.
		topo := b.topos[0][i]
		if o := b.request(ctx, 0, i); o.Fail != "" {
			rep.fail("equivalence reference %s", o.Fail)
		}
		want := snapSegs(topo.BcdnOriginSeg, topo.FcdnBcdnSeg, topo.ClientSeg)
		ch := chains[0][i]
		o, resp := tracedOBRRequest(ch, p, b.res, rec, 0, nil)
		if o.Fail != "" {
			rep.fail("equivalence traced %s", o.Fail)
		}
		got := snapSegs(ch.upSegs[1], ch.upSegs[0], ch.clientSeg)
		rep.Attempted += 2
		if f := got.diff(want, false); f != "" {
			rep.fail("%s>%s: traced loops moved different bytes: %s", p.FCDN, p.BCDN, f)
		}
		var clientResps []*httpwire.Response
		if resp != nil {
			clientResps = append(clientResps, resp)
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
	order = []*cycle{newCycle(streamRNG(cfg.Seed, 0), len(obrPairs)), newCycle(streamRNG(cfg.Seed, 1), len(obrPairs))}
	tracedRate, requests := tracedHalf(v, rep, half, rec, "client.request", chains, func(c int, id uint64) (outcome, segSnap) {
		i := order[c].next()
		ch := chains[c][i]
		o, _ := tracedOBRRequest(ch, obrPairs[i], b.res, rec, id, &calls)
		return o, snapSegs(ch.upSegs[1], ch.upSegs[0], ch.clientSeg)
	})
	calls.emit(v, requests)
	v.overhead(untracedRate, tracedRate)
	v.emit(rep)
	rep.Spans = rec.snapshot()
	return rep, nil
}

// newOBRChain is core.NewOBRTopologyOpts rebuilt as a traced chain:
// FCDN (not caching, Cloudflare in its Bypass position) -> BCDN ->
// range-disabled origin.
func newOBRChain(rt *core.Runtime, store *resource.Store, p obrExpect) (*chain, error) {
	fcdn := profile(p.FCDN)
	if fcdn.Name == "cloudflare" {
		fcdn = fcdn.Clone()
		fcdn.Options.CloudflareBypass = true
	}
	return newChain(rt, store, false, "client-fcdn", []chainHop{
		{Profile: fcdn, Addr: fcdnAddr, UpSeg: "fcdn-bcdn", DisableCache: true},
		{Profile: profile(p.BCDN), Addr: bcdnAddr, UpSeg: "bcdn-origin"},
	})
}

// tracedOBRRequest is core.RunOBRContext rebuilt on a traced chain,
// starting from zeroed segments like obrBench.request.
func tracedOBRRequest(ch *chain, p obrExpect, res *resource.Resource, rec *recorder, id uint64, calls *clientCalls) (outcome, *httpwire.Response) {
	resetSegs(ch.clientSeg, ch.upSegs[0], ch.upSegs[1])
	plan := core.PlanMaxN(ch.edges[0].Profile(), ch.edges[1].Profile(), core.TargetPath)
	probe := measure.NewProbe(ch.upSegs[0], ch.upSegs[1])
	req := core.NewAttackRequest(core.TargetPath)
	rangeHeader := core.BuildOverlappingRange(plan.FirstToken, plan.N)
	req.Headers.Add("Range", rangeHeader)
	start := time.Now()
	root := rec.begin("client.request", id, noSpan, 0)
	resp, err := ch.tn.fetch(ch.net, fcdnAddr, ch.clientSeg, req, root)
	parts := 0
	if err == nil {
		parts = core.CountParts(resp) // as core.RunOBRContext does
	}
	rec.end(root)
	lat := time.Since(start)
	ch.edges[1].Cache().Purge()
	if err != nil {
		return outcome{Fail: fmt.Sprintf("%s>%s: %v", p.FCDN, p.BCDN, err)}, nil
	}
	if parts != plan.N {
		return outcome{Fail: fmt.Sprintf("%s>%s: %d parts counted, n %d", p.FCDN, p.BCDN, parts, plan.N)}, resp
	}
	a := measure.Amplification{VictimBytes: probe.Delta().VictimBytes, AttackerBytes: probe.WireDelta().AttackerBytes}
	if calls == nil {
		calls = &clientCalls{}
	}
	calls.parse(rangeHeader)
	msg, err := calls.decode(resp)
	if err != nil {
		return outcome{Fail: fmt.Sprintf("%s>%s: multipart: %v", p.FCDN, p.BCDN, err)}, resp
	}
	return outcome{Latency: lat, Fail: checkOBR(p, plan.N, a, resp, msg, res)}, resp
}
