package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// procSnap is a point-in-time reading of the process's counters.
type procSnap struct {
	at              time.Time
	cpu             time.Duration // user + system
	allocBytes      uint64
	gcCycles        uint64
	gcCPU, totalCPU float64
	steal           time.Duration // CPU time the host took from this machine, all CPUs
}

var snapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnap() procSnap {
	s := make([]metrics.Sample, len(snapSamples))
	copy(s, snapSamples)
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSnap{
		steal:      hostSteal(),
		at:         time.Now(),
		cpu:        cpu,
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// hostSteal reads the time the hypervisor ran other guests while this
// machine's CPUs wanted to run (the steal column of /proc/stat), or 0
// where the kernel does not report it.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / 100 // USER_HZ
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// heapWatch polls the live heap until stopped and keeps the peak.
type heapWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func watchHeap(every time.Duration) *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// done stops the poller and returns the peak live heap in MB.
func (h *heapWatch) done() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// div is a/b, or 0 when b is 0, so a metric never encodes as NaN.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowCount is how many equal windows a measured pass is split into.
// Rates and CPU per request are the median over windows, so a burst of
// contention from the rest of the host in one window moves them little.
const windowCount = 20

// windows snapshots the process and a completion counter at every
// window boundary of a pass.
type windows struct {
	done   atomic.Int64 // completed requests; the workload bumps it
	snaps  []procSnap
	counts []int64
	stop   chan struct{}
	wg     sync.WaitGroup
}

// startWindows begins a pass of length span; span 0 makes the whole
// pass one window.
func startWindows(span time.Duration) *windows {
	w := &windows{stop: make(chan struct{}), snaps: []procSnap{takeSnap()}, counts: []int64{0}}
	if span <= 0 {
		return w
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(span / windowCount)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.snaps = append(w.snaps, takeSnap())
				w.counts = append(w.counts, w.done.Load())
			}
		}
	}()
	return w
}

// mark closes a window by hand, for passes with no ticker.
func (w *windows) mark() {
	w.snaps = append(w.snaps, takeSnap())
	w.counts = append(w.counts, w.done.Load())
}

// finish closes the last window; the sampler's slices are read only
// after it has returned.
func (w *windows) finish() {
	close(w.stop)
	w.wg.Wait()
	w.mark()
}

func (w *windows) first() procSnap { return w.snaps[0] }
func (w *windows) last() procSnap  { return w.snaps[len(w.snaps)-1] }

// stealLimit is the share of the machine's CPU time the host may take
// in a window before the window counts as disturbed.
const stealLimit = 0.02

// window is one closed window of a pass.
type window struct {
	from, to  time.Time
	rate      float64 // requests per second
	cpuPerReq float64 // CPU milliseconds per request
	steal     float64 // share of CPU time the host took
}

// perWindow returns the pass's full windows (those at least half the
// mean length: the drain after the last boundary is left out) and the
// clean ones among them, in which the host took at most stealLimit of
// the CPU time. When fewer than a quarter are clean, every window
// counts as clean: the whole pass ran on a busy host.
func (w *windows) perWindow() (all, clean []window) {
	full := w.last().at.Sub(w.first().at) / time.Duration(max(len(w.snaps)-1, 1))
	for i := 1; i < len(w.snaps); i++ {
		a, b := w.snaps[i-1], w.snaps[i]
		dt := b.at.Sub(a.at)
		if dt < full/2 && len(w.snaps) > 2 {
			continue
		}
		n := float64(w.counts[i] - w.counts[i-1])
		win := window{from: a.at, to: b.at, rate: div(n, dt.Seconds()), cpuPerReq: div(ms(b.cpu-a.cpu), n),
			steal: div(float64(b.steal-a.steal), float64(dt)*float64(runtime.NumCPU()))}
		all = append(all, win)
		if win.steal <= stealLimit {
			clean = append(clean, win)
		}
	}
	if len(clean) < (len(all)+3)/4 {
		clean = all
	}
	return all, clean
}

// measured is what one untraced measuring pass of a workload yields.
type measured struct {
	setups    []time.Duration // one per repeated set-up
	latencies []float64       // milliseconds, one per completed request
	doneAt    []time.Time     // when each request in latencies completed
	latNote   string          // printed beside the latency figures
	win       *windows
	maxOKRPS  float64 // open-loop workloads only; 0 means "use req_per_s"
	okNote    string
}

// emitEndToEnd adds the end-to-end metrics every workload reports.
func (m *measured) emitEndToEnd(r *report) {
	setups := make([]float64, len(m.setups))
	for i, d := range m.setups {
		setups[i] = d.Seconds()
	}
	r.addNote("setup_s", median(setups), "s", "median of "+strconv.Itoa(len(setups))+" set-ups")
	all, clean := m.win.perWindow()
	var rates, cpu []float64
	for _, w := range clean {
		rates = append(rates, w.rate)
		if w.cpuPerReq > 0 {
			cpu = append(cpu, w.cpuPerReq)
		}
	}
	rps := median(rates)
	completed := m.win.counts[len(m.win.counts)-1]
	windowsNote := "median of " + strconv.Itoa(len(clean)) + " of " + strconv.Itoa(len(all)) + " windows"
	r.addNote("req_per_s", rps, "1/s", strconv.FormatInt(completed, 10)+" requests, "+windowsNote)
	// Requests completing in a window the host took CPU time from are
	// left out (none when the whole pass ran on a busy host); the note
	// says how many remain.
	var stolen []window
	if len(clean) < len(all) {
		for _, w := range all {
			if w.steal > stealLimit {
				stolen = append(stolen, w)
			}
		}
	}
	lat := outsideWindows(m.latencies, m.doneAt, stolen)
	t := tailPercentile(lat, 0.99)
	note := " of " + strconv.Itoa(len(m.latencies)) + " completed, " + strconv.Itoa(len(stolen)) + " of " + strconv.Itoa(len(all)) + " windows left out"
	if m.latNote != "" {
		note += "; " + m.latNote
	}
	r.addNote("latency_p50_ms", median(lat), "ms", "n="+strconv.Itoa(t.N)+note)
	r.addNote("latency_p99_ms", t.Value, "ms", "p"+strconv.FormatFloat(100*t.Q, 'f', 2, 64)+" of n="+strconv.Itoa(t.N)+note)
	r.addNote("cpu_ms_per_req", median(cpu), "ms", windowsNote)
	r.add("alloc_bytes_per_req", div(float64(m.win.last().allocBytes-m.win.first().allocBytes), float64(completed)), "bytes")
	r.add("peak_rss_MB", peakRSSMB(), "MB")
	if m.maxOKRPS > 0 {
		r.addNote("max_ok_rps", m.maxOKRPS, "1/s", m.okNote)
	} else {
		r.addNote("max_ok_rps", rps, "1/s", "closed loop: the rate its clients sustain")
	}
	var steal []float64
	for _, w := range all {
		steal = append(steal, 100*w.steal)
	}
	r.infof("host steal per window, %%: %.1f; %d of %d windows at most %.0f%% count", steal, len(clean), len(all), 100*stealLimit)
	r.infof("error_ratio %d/%d = %g (carried as failed/attempted)", r.Failed, r.Attempted, div(float64(r.Failed), float64(r.Attempted)))
}

// outsideWindows keeps the latencies of requests that did not complete
// inside one of the windows ws; without completion times it keeps them
// all.
func outsideWindows(lat []float64, doneAt []time.Time, ws []window) []float64 {
	if doneAt == nil {
		return lat
	}
	var out []float64
next:
	for i, at := range doneAt {
		for _, w := range ws {
			if !at.Before(w.from) && at.Before(w.to) {
				continue next
			}
		}
		out = append(out, lat[i])
	}
	return out
}

// emitGo adds the Go runtime's per-layer figures over a pass.
func emitGo(v layerValues, before, after procSnap, completed int, heapPeakMB float64) {
	v["go.gc_cycles_per_kreq"] = div(float64(after.gcCycles-before.gcCycles)*1000, float64(completed))
	v["go.gc_cpu_fraction"] = div(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	v["go.heap_live_peak_MB"] = heapPeakMB
}
