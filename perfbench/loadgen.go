package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// request is one HTTP call of a traffic mix.
type request struct {
	Kind string // schedule, batch or cluster
	Path string
	Body []byte
}

// sample is the outcome of one request. Times are offsets from the start
// of its phase. In an open loop Due is when the schedule said to send it;
// in a closed loop it equals Sent.
type sample struct {
	Due, Sent, Done time.Duration
	Status          int
	Body            []byte
	Err             error
}

// LatencyMs is the request's latency timed from when it was due, so a
// stall also counts against every request that had to wait behind it.
func (s sample) LatencyMs() float64 { return float64(s.Done-s.Due) / 1e6 }

// LagMs is how late the generator sent the request.
func (s sample) LagMs() float64 { return float64(s.Sent-s.Due) / 1e6 }

// newClient returns a client holding at most conns connections to the
// server.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// send issues one request and stores its outcome in out.
func send(ctx context.Context, client *http.Client, base string, req request, phase time.Time, out *sample) {
	out.Sent = time.Since(phase)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+req.Path, bytes.NewReader(req.Body))
	if err == nil {
		hr.Header.Set("Content-Type", "application/json")
		var resp *http.Response
		if resp, err = client.Do(hr); err == nil {
			out.Status = resp.StatusCode
			out.Body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}
	out.Err = err
	out.Done = time.Since(phase)
}

// openLoop sends reqs at a fixed rate (requests per second) regardless of
// how fast the server answers: request i is due at i/rate. At most
// senders requests are in flight; when all senders are busy, later
// requests go out late, which shows as generator lag. done, if not nil,
// gets each finished sample in the goroutine that sent it, and may drop
// its body.
func openLoop(ctx context.Context, base string, reqs []request, rate float64, senders int,
	done func(i int, s *sample)) []sample {
	client := newClient(senders)
	defer client.CloseIdleConnections()
	out := make([]sample, len(reqs))
	due := make(chan int, len(reqs)) // sized to the number of sends: the schedule never blocks
	var wg sync.WaitGroup
	phase := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				send(ctx, client, base, reqs[i], phase, &out[i])
				if done != nil {
					done(i, &out[i])
				}
			}
		}()
	}
	for i := range reqs {
		out[i].Due = time.Duration(float64(i) / rate * float64(time.Second))
		if wait := time.Until(phase.Add(out[i].Due)); wait > 0 {
			time.Sleep(wait)
		}
		due <- i
	}
	close(due)
	wg.Wait()
	return out
}

// closedLoop runs clients callers that each send their next request only
// after the previous one completed, until reqs is used up. It returns the
// samples and the wall time of the whole phase. done is as for openLoop.
func closedLoop(ctx context.Context, base string, reqs []request, clients int,
	done func(i int, s *sample)) ([]sample, time.Duration) {
	client := newClient(clients)
	defer client.CloseIdleConnections()
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	phase := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				send(ctx, client, base, reqs[i], phase, &out[i])
				out[i].Due = out[i].Sent
				if done != nil {
					done(i, &out[i])
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(phase)
}
