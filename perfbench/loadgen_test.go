package main

import (
	"context"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopShowsStall drives the open-loop generator against a stub
// whose requests run one at a time and whose eleventh request stalls. The
// stall must show in the latency of the requests due behind it (timed from
// when they were due, not from when they were sent) and in the generator's
// lag, since every sender is stuck while it lasts.
func TestOpenLoopShowsStall(t *testing.T) {
	const (
		n       = 60
		rate    = 100.0 // one request due every 10 ms
		senders = 2
		stall   = 300 * time.Millisecond
	)
	var (
		mu    sync.Mutex
		calls atomic.Int64
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if calls.Add(1) == 11 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	out := openLoop(context.Background(), srv.URL, make([]request, n), rate, senders, nil)
	stalled := -1
	for i, s := range out {
		if s.Err != nil || s.Status != http.StatusOK {
			t.Fatalf("request %d: status %d, err %v", i, s.Status, s.Err)
		}
		if s.Done-s.Sent >= stall && stalled < 0 {
			stalled = i
		}
	}
	if stalled < 0 || stalled > n-10 {
		t.Fatalf("no request took the %v stall (stalled=%d)", stall, stalled)
	}
	// A request due 50 ms after the stalled one waits out most of the stall.
	behind := out[stalled+5]
	if got := behind.LatencyMs(); got < 200 {
		t.Errorf("request due 50 ms into the stall has latency %.1f ms, want >= 200", got)
	}
	if got := behind.LagMs(); got < 100 {
		t.Errorf("request due 50 ms into the stall was sent %.1f ms late, want >= 100", got)
	}
	maxLag := 0.0
	for _, s := range out {
		maxLag = max(maxLag, s.LagMs())
	}
	if maxLag < 200 {
		t.Errorf("generator lag peaked at %.1f ms, want >= 200", maxLag)
	}
	if last := out[n-1]; last.LatencyMs() > 100 {
		t.Errorf("last request latency %.1f ms: the backlog never drained", last.LatencyMs())
	}
}

// TestClosedLoopConnections checks that phase B never holds more than
// nproc connections or in-flight requests.
func TestClosedLoopConnections(t *testing.T) {
	clients := workers()
	var (
		inFlight, peak atomic.Int64
		conns          atomic.Int64
	)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte("{}"))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	out, wall := closedLoop(context.Background(), srv.URL, make([]request, 50*clients), clients, nil)
	for i, s := range out {
		if s.Err != nil || s.Status != http.StatusOK {
			t.Fatalf("request %d: status %d, err %v", i, s.Status, s.Err)
		}
		if s.Due != s.Sent {
			t.Fatalf("request %d: closed-loop latency must be timed from send", i)
		}
	}
	if wall <= 0 {
		t.Errorf("wall time %v", wall)
	}
	if got := peak.Load(); got > int64(clients) {
		t.Errorf("%d requests in flight at once, want <= %d", got, clients)
	}
	if got := conns.Load(); got > int64(clients) {
		t.Errorf("%d connections opened, want <= %d", got, clients)
	}
}

// TestTrafficMix checks that the serve traffic is made from its seed
// alone and holds each kind at exactly its share.
func TestTrafficMix(t *testing.T) {
	const n = 1000
	a, b, c := traffic(7, n), traffic(7, n), traffic(8, n)
	count := map[string]int{}
	same, differ := true, false
	for i := range a {
		count[a[i].Kind]++
		same = same && string(a[i].Body) == string(b[i].Body)
		differ = differ || string(a[i].Body) != string(c[i].Body)
	}
	if !same {
		t.Error("the same seed made different traffic")
	}
	if !differ {
		t.Error("different seeds made the same traffic")
	}
	want := map[string]int{"cluster": 20, "batch": 300, "schedule": 680}
	for kind, n := range want {
		if count[kind] != n {
			t.Errorf("%d %s requests, want %d", count[kind], kind, n)
		}
	}
}

// TestBlockRates checks that phase B's blocks are cut in order of
// completion, each timed from the previous block's last answer, and that
// a partial last block is left out.
func TestBlockRates(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	// Answers out of order: sorted, they end at 100, 200, 300, 400, 1300,
	// 1400 and 1500 ms.
	samples := []sample{{Done: ms(200)}, {Done: ms(100)}, {Done: ms(400)}, {Done: ms(300)},
		{Done: ms(1400)}, {Done: ms(1300)}, {Done: ms(1500)}}
	got := blockRates(samples, 2)
	want := []float64{10, 10, 2}
	if len(got) != len(want) {
		t.Fatalf("rates %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("block %d: %v answers/s, want %v", i, got[i], want[i])
		}
	}
}

// TestBlocksExactShares checks that every phase B block holds each kind at
// exactly its share and that blocks differ from one another.
func TestBlocksExactShares(t *testing.T) {
	reqs := blocks(3, 4)
	if len(reqs) != 4*blockSize {
		t.Fatalf("%d requests, want %d", len(reqs), 4*blockSize)
	}
	for k := 0; k < 4; k++ {
		count := map[string]int{}
		for _, r := range reqs[k*blockSize : (k+1)*blockSize] {
			count[r.Kind]++
		}
		if count["cluster"] != 2 || count["batch"] != 30 || count["schedule"] != 68 {
			t.Errorf("block %d holds %v", k, count)
		}
	}
	if string(reqs[0].Body) == string(reqs[blockSize].Body) && string(reqs[1].Body) == string(reqs[blockSize+1].Body) {
		t.Error("two blocks start with the same requests")
	}
}
