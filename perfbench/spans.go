package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// noSpan is the parent of a root span.
const noSpan int32 = -1

// span is one timed call into a layer. Spans of one request share Req;
// Parent indexes the span that caused this one (noSpan for a root).
type span struct {
	Name       string
	Req        uint64
	Parent     int32
	Track      uint32
	Start, End int64 // nanoseconds since the recorder's epoch
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for the life of a traced run; they are
// analysed and exported only after the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its index. A nil recorder records
// nothing and returns noSpan, so untraced paths pay one nil check.
func (r *recorder) begin(name string, req uint64, parent int32, track uint32) int32 {
	if r == nil {
		return noSpan
	}
	t := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Track: track, Start: t, End: -1})
	i := int32(len(r.spans) - 1)
	r.mu.Unlock()
	return i
}

// end closes span i.
func (r *recorder) end(i int32) {
	if r == nil || i == noSpan {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[i].End = t
	r.mu.Unlock()
}

// add records a span whose start and end are already known.
func (r *recorder) add(name string, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Parent: noSpan, Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	r.mu.Unlock()
}

// snapshot returns the recorded spans; call it once the run is quiet.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other and may outlive their parent; only the union of their
// intervals clipped to the parent's counts. Unclosed spans count zero.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent != noSpan && int(s.Parent) < len(spans) {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		iv = iv[:0]
		for _, c := range children[i] {
			cs := spans[c]
			if cs.End < cs.Start {
				continue
			}
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self[i] = s.dur() - unionLength(iv)
	}
	return self
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerOf is the layer a span name belongs to: the text before the
// first dot ("cdn.handle" -> "cdn").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// chromeEvent is one Chrome trace-event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  uint32         `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes up to limit closed spans as Chrome trace-event
// JSON (loadable in Perfetto and chrome://tracing), with meta attached
// as the file's metadata.
func writeChromeTrace(path string, spans []span, limit int, meta any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	events := make([]chromeEvent, 0, min(limit, len(spans)))
	for i, s := range spans {
		if len(events) == limit {
			break
		}
		if s.End < s.Start {
			continue
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.Track,
			Args: map[string]any{"span": i, "req": s.Req, "parent": s.Parent},
		})
	}
	doc := map[string]any{"traceEvents": events, "displayTimeUnit": "ns", "metadata": meta}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// reparent sets the parent of span i once the loop has parsed enough
// of the request to know it.
func (r *recorder) reparent(i, parent int32) {
	if r == nil || i == noSpan {
		return
	}
	r.mu.Lock()
	r.spans[i].Parent = parent
	r.mu.Unlock()
}

// len is the number of spans recorded so far.
func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}
