package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// closedClients is the closed-loop client count: no more load threads
// than the two CPUs the benchmark is sized for.
const closedClients = 2

// outcome is one closed-loop request: its latency and any output check
// it failed.
type outcome struct {
	Latency time.Duration
	Fail    string
}

// loopResult merges every client's outcomes.
type loopResult struct {
	Latencies []float64   // ms, requests whose outputs checked out
	DoneAt    []time.Time // when each of them completed
	Attempted int
	Fails     []string
}

// closedLoop runs clients goroutines for span; each sends its next
// request only after the previous one completed and was checked. Each
// request that checks out bumps done, when done is not nil.
func closedLoop(clients int, span time.Duration, done *atomic.Int64, step func(client int) outcome) loopResult {
	deadline := time.Now().Add(span)
	per := make([]loopResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &per[c]
			for time.Now().Before(deadline) {
				o := step(c)
				r.Attempted++
				if o.Fail != "" {
					r.Fails = append(r.Fails, o.Fail)
					continue
				}
				r.Latencies = append(r.Latencies, ms(o.Latency))
				r.DoneAt = append(r.DoneAt, time.Now())
				if done != nil {
					done.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	var out loopResult
	for _, r := range per {
		out.Latencies = append(out.Latencies, r.Latencies...)
		out.DoneAt = append(out.DoneAt, r.DoneAt...)
		out.Attempted += r.Attempted
		out.Fails = append(out.Fails, r.Fails...)
	}
	return out
}

// record adds a pass's attempts and failures to the report.
func (l loopResult) record(r *report) {
	r.Attempted += l.Attempted
	for _, f := range l.Fails {
		r.fail("%s", f)
	}
}
