package main

import (
	"bytes"
	"runtime/metrics"

	"repro/internal/httpwire"
)

// sampleMessages gathers a traced pass's messages: the requests every
// loop read, the responses the client read, and the responses the
// origin gives to the requests it read (the origin is deterministic, so
// asking it again reproduces them).
func sampleMessages(kept []keptRequest, clientResps []*httpwire.Response, handle func(*httpwire.Request) *httpwire.Response) ([]*httpwire.Request, []*httpwire.Response) {
	reqs := make([]*httpwire.Request, 0, len(kept))
	resps := append([]*httpwire.Response(nil), clientResps...)
	for _, k := range kept {
		reqs = append(reqs, k.req)
		if k.origin {
			resps = append(resps, handle(k.req))
		}
	}
	return reqs, resps
}

// allocPerMsg serializes and parses sample messages on one goroutine
// with the program's pooled buffers and returns the heap bytes httpwire
// allocated per message. Run it while the topology is
// idle: the allocation counter is process-wide.
func allocPerMsg(reqs []*httpwire.Request, resps []*httpwire.Response) (float64, error) {
	var buf bytes.Buffer
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var total uint64
	count := 0
	measure := func(write func() error, read func() error) error {
		buf.Reset()
		if err := write(); err != nil { // sizes the buffer, untimed
			return err
		}
		buf.Reset()
		metrics.Read(s)
		before := s[0].Value.Uint64()
		err := write()
		if err == nil {
			err = read()
		}
		metrics.Read(s)
		total += s[0].Value.Uint64() - before
		count++
		return err
	}
	for _, req := range reqs {
		err := measure(func() error { _, err := req.WriteTo(&buf); return err }, func() error {
			br := httpwire.GetReader(&buf)
			defer httpwire.PutReader(br)
			_, err := httpwire.ReadRequest(br, httpwire.Limits{})
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	for _, resp := range resps {
		err := measure(func() error { _, err := resp.WriteTo(&buf); return err }, func() error {
			br := httpwire.GetReader(&buf)
			defer httpwire.PutReader(br)
			_, err := httpwire.ReadResponse(br, httpwire.Limits{})
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return div(float64(total), float64(count)), nil
}
