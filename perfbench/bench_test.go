package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	cases := []struct {
		n     int
		wantQ float64
		want  float64
	}{
		{2000, 0.99, 1980}, // 20 samples beyond p99
		{1000, 0.99, 990},  // exactly 10 beyond
		{500, 0.98, 490},   // p99 would leave 5 beyond; p98 leaves 10
		{11, 1.0 / 11, 1},  // only the lowest sample has 10 beyond it
		{10, 1, 10},        // nothing qualifies: the maximum
		{1, 1, 1},
	}
	for _, c := range cases {
		got := tailPercentile(seq(c.n), 0.99)
		if got.N != c.n || got.Value != c.want || got.Q != c.wantQ {
			t.Errorf("n=%d: got %+v, want value %v at q %v", c.n, got, c.want, c.wantQ)
		}
		beyond := 0
		for _, v := range seq(c.n) {
			if v > got.Value {
				beyond++
			}
		}
		if c.n > tailMinBeyond && beyond < tailMinBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, beyond)
		}
	}
	if got := tailPercentile(nil, 0.99); got.N != 0 || got.Value != 0 {
		t.Errorf("empty: %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}

// A stall that holds a request back counts against it from its due
// instant, and the generator's own lateness is reported apart.
func TestOpenLoopDueTimeAccounting(t *testing.T) {
	ms := time.Millisecond
	// Due at 0 and 1 ms; the site stalls 10 ms on the first, so the
	// second, released on time, waits behind it.
	samples := []openLoopSample{
		{Due: 0, Released: 0, Done: 10 * ms},
		{Due: 1 * ms, Released: 1 * ms, Done: 11 * ms},
		{Due: 2 * ms, Released: 5 * ms, Done: 12 * ms}, // generator ran 3 ms late
	}
	wantLat := []time.Duration{10 * ms, 10 * ms, 10 * ms}
	wantLag := []time.Duration{0, 0, 3 * ms}
	for i, s := range samples {
		if s.Latency() != wantLat[i] || s.Lag() != wantLag[i] {
			t.Errorf("sample %d: latency %v lag %v, want %v and %v", i, s.Latency(), s.Lag(), wantLat[i], wantLag[i])
		}
	}
	lat, lag := latenciesMS(append(samples, openLoopSample{Due: 3 * ms, Released: 3 * ms}))
	if len(lat) != 3 || len(lag) != 4 {
		t.Errorf("an unfinished request has a lag but no latency: %d latencies, %d lags", len(lat), len(lag))
	}
}

func TestOpenLoopScheduleRate(t *testing.T) {
	sched := liveSchedule(3, liveStream, 2000, 5*time.Second, liveMissShare)
	if n := len(sched); n < 9700 || n > 10300 {
		t.Errorf("%d arrivals in 5 s at 2000/s", n)
	}
	misses := 0
	busters := map[string]bool{}
	for i, r := range sched {
		if i > 0 && r.Due < sched[i-1].Due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
		rangeHdr, _ := r.Req.Headers.Get("Range")
		if _, _, err := singleRange(rangeHdr, liveHotSize); err != nil {
			t.Fatalf("arrival %d: %v", i, err)
		}
		if r.Miss {
			misses++
			if r.Req.Path() != missPath || rangeHdr != liveMissRange || busters[r.Req.Target] {
				t.Fatalf("arrival %d is no fresh SBR probe: %s %s", i, r.Req.Target, rangeHdr)
			}
			busters[r.Req.Target] = true
		} else if !strings.HasPrefix(r.Req.Target, "/hot/") || rangeHdr == "" {
			t.Fatalf("arrival %d is no benign range read of a hot object: %s %q", i, r.Req.Target, rangeHdr)
		}
	}
	if share := float64(misses) / float64(len(sched)); share < 0.17 || share > 0.23 {
		t.Errorf("miss share %.3f, want about %v", share, liveMissShare)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "cdn.handle", Parent: noSpan, Start: 0, End: 100},
		{Name: "netsim.read", Parent: 0, Start: 10, End: 30},
		{Name: "origin.handle", Parent: 0, Start: 20, End: 50},   // overlaps its sibling
		{Name: "httpwire.write", Parent: 0, Start: 90, End: 120}, // outlives its parent
		{Name: "netsim.write", Parent: 3, Start: 100, End: 110},
		{Name: "open", Parent: 0, Start: 60, End: -1}, // never closed: ignored
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100] of the parent: 50 of its 100.
	want := []int64{50, 20, 30, 20, 10, 0}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
}

func TestUnionLength(t *testing.T) {
	iv := [][2]int64{{5, 10}, {0, 3}, {2, 4}, {10, 12}, {20, 21}}
	if got := unionLength(iv); got != 4+7+1 {
		t.Errorf("union %d, want 12", got)
	}
}

// The ladder gives each instant to the latest-started open span, so
// concurrent hops share the timeline instead of being counted twice.
func TestExclusiveAttribution(t *testing.T) {
	spans := []span{
		{Name: "client.probe", Parent: noSpan, Start: 0, End: 100},
		{Name: "cdn.handle", Parent: 0, Start: 10, End: 90},
		{Name: "netsim.read", Parent: 1, Start: 20, End: 80},
		{Name: "origin.handle", Parent: 1, Start: 30, End: 40}, // runs while the edge waits
	}
	got := map[string]int64{}
	var covered int64
	for _, a := range exclusive(spans, spans[0], []int32{1, 2, 3}) {
		got[spans[a.span].Name] += int64(a.d)
		covered += int64(a.d)
	}
	want := map[string]int64{"cdn.handle": 20, "netsim.read": 50, "origin.handle": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %d, want %d", k, got[k], v)
		}
	}
	if covered != 80 {
		t.Errorf("covered %d of the 100-long request, want 80", covered)
	}
	a := analyze(spans, "client.probe", 0)
	if a.Requests != 1 || a.Covered[0] != ms(80) {
		t.Errorf("analysis: %d requests, covered %v", a.Requests, a.Covered)
	}
}

func TestInputsAreDeterministic(t *testing.T) {
	a, b := inputDigest(42, 200), inputDigest(42, 200)
	if a != b {
		t.Fatal("one seed generated different inputs")
	}
	if inputDigest(43, 200) == a {
		t.Error("different seeds generated the same inputs")
	}
}

func TestSBRCheckTolerance(t *testing.T) {
	cells := sbrCells()
	var akamai25, azure25 sbrCell
	for _, c := range cells {
		switch {
		case c.Vendor == "akamai" && c.SizeIdx == 2:
			akamai25 = c
		case c.Vendor == "azure" && c.SizeIdx == 2:
			azure25 = c
		}
	}
	if f := checkSBR(akamai25, 607, 26214797, 1); f != "" {
		t.Errorf("Table IV akamai 25 MB (43187) rejected: %s", f)
	}
	if f := checkSBR(akamai25, 607, 26214798, 1); f == "" {
		t.Error("akamai accepted a byte off")
	}
	if f := checkSBR(azure25, 739, 16781769+100_000, 1); f != "" {
		t.Errorf("azure abort within one window rejected: %s", f)
	}
	if f := checkSBR(azure25, 739, 16781769+300_000, 1); f == "" {
		t.Error("azure accepted more than one window off")
	}
}

// inputDigest renders the first n inputs of every generator for a seed
// as text, for the determinism self-test.
func inputDigest(seed int64, n int) string {
	var b strings.Builder
	for client := 0; client < 2; client++ {
		g := newSBRGen(seed, client, len(sbrCells()))
		o := newCycle(streamRNG(seed, client), len(obrPairs))
		for i := 0; i < n; i++ {
			p := g.next()
			fmt.Fprintf(&b, "sbr %d %d %s\nobr %d %d\n", client, p.Cell, p.Buster, client, o.next())
		}
	}
	for _, r := range liveSchedule(seed, liveStream, 500, time.Duration(n)*time.Millisecond, liveMissShare) {
		var wire bytes.Buffer
		r.Req.WriteTo(&wire)
		fmt.Fprintf(&b, "live %d %q\n", r.Due, wire.String())
	}
	return b.String()
}

// The ladder brackets the limit wherever it lies: a capacity far
// below the first step reads as its own rate, not a clamp, and one that
// no step reaches fails.
func TestLadderBracketsTheLimit(t *testing.T) {
	for _, share := range []float64{0.3, 0.8, 1.8, 3} {
		capacity := share * ladderStart
		steps := 0
		lo, hi, ok := climbLadder(func(rate float64) bool { steps++; return rate <= capacity })
		if !ok || lo > capacity || hi <= capacity || hi/lo > 1.05 {
			t.Errorf("capacity %.0f: bracket [%.0f, %.0f], bracketed %v", capacity, lo, hi, ok)
		}
		if steps != ladderSteps {
			t.Errorf("capacity %.0f: %d steps, want %d", capacity, steps, ladderSteps)
		}
	}
	for _, capacity := range []float64{ladderStart / 10, ladderStart * 10} {
		if lo, hi, ok := climbLadder(func(rate float64) bool { return rate <= capacity }); ok {
			t.Errorf("capacity %.0f: bracketed at [%.0f, %.0f], want a failed check", capacity, lo, hi)
		}
	}
}

// Replies are checked against an independent reading of the Range
// header.
func TestSingleRange(t *testing.T) {
	for _, c := range []struct {
		h           string
		first, last int64
	}{
		{"", 0, 99}, {"bytes=0-0", 0, 0}, {"bytes=10-", 10, 99}, {"bytes=90-200", 90, 99},
		{"bytes=-10", 90, 99}, {"bytes=-500", 0, 99},
	} {
		first, last, err := singleRange(c.h, 100)
		if err != nil || first != c.first || last != c.last {
			t.Errorf("%q: %d-%d, %v; want %d-%d", c.h, first, last, err, c.first, c.last)
		}
	}
	for _, h := range []string{"bytes=100-", "bytes=5-2", "bytes=0-1,4-5", "items=0-1", "bytes=-0"} {
		if _, _, err := singleRange(h, 100); err == nil {
			t.Errorf("%q accepted", h)
		}
	}
}

// Windows in which the host took CPU time from the machine are left
// out, unless nearly all of them were disturbed.
func TestWindowsLeaveOutStolenTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	cpus := time.Duration(runtime.NumCPU())
	build := func(stolen ...bool) *windows {
		w := &windows{snaps: []procSnap{{at: t0}}, counts: []int64{0}}
		var steal time.Duration
		for i, s := range stolen {
			if s {
				steal += cpus * 100 * time.Millisecond // a tenth of every CPU
			}
			w.snaps = append(w.snaps, procSnap{at: t0.Add(time.Duration(i+1) * time.Second), steal: steal})
			w.counts = append(w.counts, int64(i+1)*100)
		}
		return w
	}
	all, clean := build(false, true, false, false).perWindow()
	if len(all) != 4 || len(clean) != 3 {
		t.Errorf("%d windows, %d clean: want 4 and 3", len(all), len(clean))
	}
	for _, w := range clean {
		if w.rate != 100 || w.steal != 0 {
			t.Errorf("clean window %+v", w)
		}
	}
	if _, clean := build(true, true, true, true, true, false).perWindow(); len(clean) != 6 {
		t.Errorf("a pass on a busy host keeps all its windows, kept %d", len(clean))
	}
	// A request is left out only when it completed in a stolen window,
	// so the one completing after the last full window stays.
	lat := []float64{1, 2, 3, 4, 5}
	var doneAt []time.Time
	for _, at := range []time.Duration{500, 1500, 2500, 3500, 4200} {
		doneAt = append(doneAt, t0.Add(at*time.Millisecond))
	}
	if got := outsideWindows(lat, doneAt, all[1:2]); fmt.Sprint(got) != "[1 3 4 5]" {
		t.Errorf("latencies outside the stolen window: %v", got)
	}
}
