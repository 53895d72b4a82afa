package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/vtime"
)

// The vtime-flood workload: keep-alive SBR floods of vtimeClients each
// against a four-PoP cluster on the discrete-event engine, back to back
// so a run simulates several million clients. Both hops of every PoP
// are capped at 1000 Mbps, the link of the paper's testbed origin (the
// rate internal/bwsim models for Fig 7), so every transfer goes through
// SharedLink's per-flow work. The hop latencies (20 ms and 5 ms) are
// round settings, not paper figures; a flood lasts 2194 virtual
// seconds, set by the bandwidth.
const (
	vtimeClients  = 1_000_000
	vtimeWarmup   = 50_000
	vtimeNodes    = 4
	vtimeResource = 1 << 20
	testbedLink   = 1000e6 / 8 // bytes per second
)

var (
	vtimeClientLink   = vtime.LinkParams{Latency: 20 * time.Millisecond, BytesPerSec: testbedLink}
	vtimeUpstreamLink = vtime.LinkParams{Latency: 5 * time.Millisecond, BytesPerSec: testbedLink}
)

func floodOptions(seed int64, clients int, sched *vtime.Scheduler) core.ClusterFloodOptions {
	return core.ClusterFloodOptions{
		Nodes: vtimeNodes, Workers: clients, PerWorker: 1, KeepAlive: true,
		ResourceSize: vtimeResource, Engine: core.EngineVTime,
		VTime: core.VTimeOptions{Seed: seed, Sched: sched, Client: vtimeClientLink, Upstream: vtimeUpstreamLink},
	}
}

// checkFlood holds a flood to the closed form the Table IV cloudflare
// 1 MB cell gives: every client completes, each request moving exactly
// that cell's response bytes on each hop.
func checkFlood(res *core.ClusterFloodResult, clients int) string {
	exp := table4["cloudflare"][0]
	switch {
	case res.Requests != clients || res.Failures != 0 || res.Blocked != 0:
		return fmt.Sprintf("flood of %d: %d requests, %d failed, %d blocked", clients, res.Requests, res.Failures, res.Blocked)
	case res.Amplification.VictimBytes != int64(clients)*exp.Origin:
		return fmt.Sprintf("flood of %d: origin bytes %d, want %d", clients, res.Amplification.VictimBytes, int64(clients)*exp.Origin)
	case res.Amplification.AttackerBytes != int64(clients)*exp.Client:
		return fmt.Sprintf("flood of %d: client bytes %d, want %d", clients, res.Amplification.AttackerBytes, int64(clients)*exp.Client)
	case res.VirtualDuration <= 0:
		return fmt.Sprintf("flood of %d: no virtual time elapsed", clients)
	}
	return ""
}

// sameFlood reports how a rerun with the same seed differs from the
// first run ("" when it repeats exactly).
func sameFlood(a, b *core.ClusterFloodResult) string {
	if !reflect.DeepEqual(a, b) {
		return fmt.Sprintf("seed rerun differs: %d/%v/%+v vs %d/%v/%+v", a.Requests, a.VirtualDuration, a.PerNode, b.Requests, b.VirtualDuration, b.PerNode)
	}
	return ""
}

type floodRun struct {
	res  *core.ClusterFloodResult
	wall time.Duration
}

func flood(ctx context.Context, opts core.ClusterFloodOptions) (floodRun, error) {
	start := time.Now()
	res, err := core.RunClusterFlood(ctx, core.NewRuntime(), opts)
	return floodRun{res: res, wall: time.Since(start)}, err
}

// warmFlood is the set-up: a small flood run twice with one seed, which
// must repeat exactly.
func warmFlood(ctx context.Context, seed int64, rep *report) error {
	var first *core.ClusterFloodResult
	for i := 0; i < 2; i++ {
		r, err := flood(ctx, floodOptions(seed, vtimeWarmup, nil))
		if err != nil {
			return err
		}
		rep.Attempted++
		if f := checkFlood(r.res, vtimeWarmup); f != "" {
			rep.fail("warm-up %s", f)
		}
		if first == nil {
			first = r.res
		} else if f := sameFlood(first, r.res); f != "" {
			rep.fail("warm-up %s", f)
		}
	}
	return nil
}

func runVTimeFlood(ctx context.Context, cfg config) (*report, error) {
	rep := &report{}
	repeats := setupRepeats + 2 // a set-up is a third of a second
	if cfg.Trace {
		repeats = 1
	}
	var setups []time.Duration
	for i := 0; i < repeats; i++ {
		runtime.GC()
		start := time.Now()
		if err := warmFlood(ctx, cfg.Seed, rep); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	span := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		return tracedFlood(ctx, cfg, rep)
	}
	runtime.GC()
	m := measured{setups: setups, win: startWindows(0)}
	var first *core.ClusterFloodResult
	var wall time.Duration
	// Floods run back to back until the span is used up; every flood
	// after the first must repeat it exactly (the set-up already checked
	// a seed rerun of the small flood).
	for n := 0; n < 1 || wall < span; n++ {
		runtime.GC() // every flood starts from the same heap,
		m.win.mark() // and is a window of its own
		r, err := flood(ctx, floodOptions(cfg.Seed, vtimeClients, nil))
		if err != nil {
			return nil, err
		}
		wall += r.wall
		rep.Attempted++
		f := checkFlood(r.res, vtimeClients)
		if first == nil {
			first = r.res
		} else if f == "" {
			f = sameFlood(first, r.res)
		}
		if f != "" {
			rep.fail("%s", f)
			continue
		}
		m.latencies = append(m.latencies, ms(r.wall))
		m.win.done.Add(int64(r.res.Requests))
		m.win.mark()
		m.doneAt = append(m.doneAt, m.win.last().at.Add(-time.Nanosecond)) // inside the flood's window
	}
	m.win.finish()
	m.emitEndToEnd(rep)
	rep.infof("flood: %d floods of %d clients, virtual %v each; latency is one flood call's wall time", len(m.latencies), vtimeClients, first.VirtualDuration)
	return rep, nil
}

// tracedFlood runs one flood untraced and one watched by a 1 ms poll of
// the scheduler's clock, then drives Replay and SharedLink directly.
func tracedFlood(ctx context.Context, cfg config, rep *report) (*report, error) {
	v := layerValues{}
	runtime.GC()
	heap := watchHeap(5 * time.Millisecond)
	before := takeSnap()
	plain, err := flood(ctx, floodOptions(cfg.Seed, vtimeClients, nil))
	if err != nil {
		return nil, err
	}
	after := takeSnap()
	emitGo(v, before, after, plain.res.Requests, heap.done())
	rep.Attempted++
	if f := checkFlood(plain.res, vtimeClients); f != "" {
		rep.fail("%s", f)
	}

	rec := newRecorder()
	sched := vtime.NewScheduler()
	stop := make(chan struct{})
	var firstAdvance time.Duration
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if sched.Elapsed() > 0 {
					firstAdvance = time.Since(start)
					return
				}
			}
		}
	}()
	watched, err := flood(ctx, floodOptions(cfg.Seed, vtimeClients, sched))
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	rep.Attempted++
	f := checkFlood(watched.res, vtimeClients)
	if f == "" {
		f = sameFlood(plain.res, watched.res)
	}
	if f != "" {
		rep.fail("watched %s", f)
	}
	if firstAdvance == 0 {
		firstAdvance = watched.wall
	}
	rec.add("vtime.prepare", start, start.Add(firstAdvance))
	rec.add("vtime.loop", start.Add(firstAdvance), start.Add(watched.wall))
	n := float64(watched.res.Requests)
	v["vtime.prepare_s"] = firstAdvance.Seconds()
	v["vtime.loop_s"] = (watched.wall - firstAdvance).Seconds()
	v["vtime.loop_ns_per_client"] = div(float64(watched.wall-firstAdvance), n)
	v["vtime.virtual_s"] = watched.res.VirtualDuration.Seconds()
	v["netsim.victim_bytes_per_req"] = div(float64(watched.res.Amplification.VictimBytes), n)
	v["netsim.attacker_bytes_per_req"] = div(float64(watched.res.Amplification.AttackerBytes), n)
	replayStart := time.Now()
	replayNs, err := replayCost(ctx, 200_000)
	if err != nil {
		return nil, err
	}
	linkStart := time.Now()
	linkNs, err := linkCost(ctx, 200_000)
	if err != nil {
		return nil, err
	}
	v["vtime.replay_ns_per_client"] = replayNs
	v["vtime.link_ns_per_transfer"] = linkNs
	rec.add("vtime.replay", replayStart, linkStart)
	rec.add("vtime.link", linkStart, time.Now())
	rep.Spans = rec.snapshot()
	v.overhead(div(float64(plain.res.Requests), plain.wall.Seconds()), div(n, watched.wall.Seconds()))
	v.emit(rep)
	return rep, nil
}

// replayCost drives vtime.Replay directly: clients replaying a
// one-request, two-hop template over the flood's capped links. It
// returns host nanoseconds per client.
func replayCost(ctx context.Context, clients int) (float64, error) {
	s := vtime.NewScheduler()
	r := vtime.NewReplay(s)
	exp := table4["cloudflare"][0]
	path := r.AddPath([]vtime.Hop{
		{Seg: vtime.NewSegmentBatch(s, netsim.NewSegment("bench-upstream")), Link: vtime.NewSharedLink(s, vtimeUpstreamLink)},
		{Seg: vtime.NewSegmentBatch(s, netsim.NewSegment("bench-client")), Link: vtime.NewSharedLink(s, vtimeClientLink)},
	})
	tmpl := r.AddTemplate(&vtime.Template{
		Reqs:  []vtime.ReqSample{{Hops: []vtime.Delta{{Up: 200, Down: exp.Origin, Conns: 1}, {Up: 200, Down: exp.Client, Conns: 1}}}},
		Close: []vtime.Delta{{Closed: 1}, {Closed: 1}},
		Dials: 1,
	})
	for i := 0; i < clients; i++ {
		r.AddClient(time.Duration(i)*time.Microsecond, tmpl, path)
	}
	start := time.Now()
	if err := r.Run(ctx); err != nil {
		return 0, err
	}
	if r.Counts.Requests != int64(clients) {
		return 0, fmt.Errorf("replay completed %d of %d clients", r.Counts.Requests, clients)
	}
	return div(float64(time.Since(start)), float64(clients)), nil
}

// linkCost drives SharedLink.TransferEvent directly: transfers arriving
// a microsecond apart on one capped link. It returns host nanoseconds
// per transfer.
func linkCost(ctx context.Context, transfers int) (float64, error) {
	s := vtime.NewScheduler()
	l := vtime.NewSharedLink(s, vtimeClientLink)
	done := 0
	kDone := s.RegisterKind(func(uint64) { done++ })
	kArrive := s.RegisterKind(func(idx uint64) { l.TransferEvent(vtimeResource, kDone, idx) })
	arr := make([]vtime.Arrival, transfers)
	for i := range arr {
		arr[i] = vtime.Arrival{At: int64(i) * int64(time.Microsecond), Idx: uint64(i)}
	}
	s.StreamArrivals(kArrive, arr)
	start := time.Now()
	if err := s.Run(ctx); err != nil {
		return 0, err
	}
	if done != transfers {
		return 0, fmt.Errorf("link completed %d of %d transfers", done, transfers)
	}
	return div(float64(time.Since(start)), float64(transfers)), nil
}
