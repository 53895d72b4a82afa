package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/httpwire"
	"repro/internal/workload"
)

// Every workload input comes from here, derived from the run's seed and
// nothing else; the program sees only what these generators produce.

// streamRNG returns the generator for one input stream of a seed, so
// each client's stream is independent of how far the others got.
func streamRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// cycle deals cell indexes in rounds: every round is a fresh seeded
// permutation of all cells, so any run covers the cells evenly.
type cycle struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newCycle(rng *rand.Rand, cells int) *cycle {
	return &cycle{rng: rng, perm: make([]int, cells), pos: cells}
}

func (c *cycle) next() int {
	if c.pos == len(c.perm) {
		copy(c.perm, c.rng.Perm(len(c.perm)))
		c.pos = 0
	}
	c.pos++
	return c.perm[c.pos-1]
}

// sbrProbe is one cache-busted SBR exploit probe: which (vendor, size)
// cell it targets and its cache-busting token.
type sbrProbe struct {
	Cell   int
	Buster string
}

type sbrGen struct {
	rng   *rand.Rand
	cells *cycle
}

func newSBRGen(seed int64, client, cells int) *sbrGen {
	rng := streamRNG(seed, client)
	return &sbrGen{rng: rng, cells: newCycle(rng, cells)}
}

func (g *sbrGen) next() sbrProbe {
	cell := g.cells.next()
	// Fixed-width tokens keep every probe's wire footprint equal to the
	// Table IV measurement's.
	return sbrProbe{Cell: cell, Buster: fmt.Sprintf("%08x", g.rng.Uint32())}
}

// liveReq is one scheduled request of the open-loop workload.
type liveReq struct {
	Due  time.Duration // offset from the phase start
	Req  *httpwire.Request
	Miss bool // a cache-busting SBR probe rather than a benign read
}

// liveSchedule draws Poisson arrivals at rate per second over span. A
// share missShare of them are cache-busting SBR probes; the rest are,
// in order, the requests of the repository's benign range-traffic
// model (workload.Generator.Mixed: media seeks, resumed and segmented
// downloads, tail probes) over the hot objects.
func liveSchedule(seed int64, stream int, rate float64, span time.Duration, missShare float64) []liveReq {
	rng := streamRNG(seed, stream)
	var out []liveReq
	benign := 0
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= span {
			break
		}
		r := liveReq{Due: t, Miss: rng.Float64() < missShare}
		if r.Miss {
			r.Req = missProbe(strconv.Itoa(stream) + "-" + strconv.Itoa(len(out)))
		} else {
			benign++
		}
		out = append(out, r)
	}
	reads := workload.NewGenerator(rng.Int63()).Mixed(hotPaths(), liveHotSize, benign)
	for i := range out {
		if !out[i].Miss {
			out[i].Req, reads = reads[0], reads[1:]
		}
	}
	return out
}
