package vm

import (
	"math/rand"
	"testing"
)

// collectBatch records every packed access it receives, preserving order, so
// a StreamSink's chunked delivery can be compared against a recorded trace.
type collectBatch struct {
	packed []uint64
	calls  int
}

func (c *collectBatch) AccessBatch(packed []uint64) {
	c.calls++
	c.packed = append(c.packed, packed...)
}

func randomTrace(n int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{}
	for i := 0; i < n; i++ {
		tr.Access(uint64(rng.Intn(1<<20)), rng.Intn(3) == 0)
	}
	return tr
}

func TestPackUnpack(t *testing.T) {
	cases := []struct {
		addr  uint64
		write bool
	}{{0, false}, {0, true}, {1, false}, {0xdeadbeef, true}, {1 << 62, false}}
	for _, c := range cases {
		addr, write := Unpack(Pack(c.addr, c.write))
		if addr != c.addr || write != c.write {
			t.Fatalf("Pack/Unpack(%#x,%v) = (%#x,%v)", c.addr, c.write, addr, write)
		}
	}
}

// TestFlatTraceRoundTrip packs a whole recorded trace into its flat
// encoding and decodes it back access by access.
func TestFlatTraceRoundTrip(t *testing.T) {
	tr := randomTrace(4096, 7)
	for i, a := range tr.Accesses {
		addr, write := Unpack(Pack(a.Addr, a.Write))
		if addr != a.Addr || write != a.Write {
			t.Fatalf("access %d: round trip (%#x,%v), want %+v", i, addr, write, a)
		}
	}
}

// TestStreamSinkMatchesFlatTrace drives a recorded Trace into a StreamSink
// and requires every aggregate the characterization pipeline consumes to
// agree with the trace: counts, both feature-vector footprints, and the
// exact flat (packed) encoding of the trace delivered to the batch sink.
func TestStreamSinkMatchesFlatTrace(t *testing.T) {
	n := 3*StreamChunk + 137 // several full chunks plus a partial
	tr := randomTrace(n, 41)
	var got collectBatch
	ss := NewStreamSink(&got, 1<<20)
	tr.Replay(ss)
	ss.Flush()
	if ss.Len() != tr.Len() || ss.Writes() != tr.Writes() || ss.Reads() != tr.Reads() {
		t.Fatalf("counts: stream %d/%d/%d, trace %d/%d/%d",
			ss.Len(), ss.Writes(), ss.Reads(), tr.Len(), tr.Writes(), tr.Reads())
	}
	for _, block := range []int{16, 64} {
		if g, w := ss.Footprint(block), tr.Footprint(block); g != w {
			t.Fatalf("Footprint(%d): stream %d, trace %d", block, g, w)
		}
	}
	if len(got.packed) != tr.Len() {
		t.Fatalf("delivered %d packed accesses, want %d", len(got.packed), tr.Len())
	}
	for i, a := range tr.Accesses {
		if want := Pack(a.Addr, a.Write); got.packed[i] != want {
			t.Fatalf("packed access %d: stream %#x, trace %#x", i, got.packed[i], want)
		}
	}
	if got.calls < n/StreamChunk {
		t.Fatalf("expected chunked delivery, got %d batch calls for %d accesses", got.calls, n)
	}
}

// TestStreamSinkFootprintContract pins the granularity contract: only
// positive multiples of the 16-byte tracking grain are answerable; anything
// else returns -1 instead of a silently wrong count.
func TestStreamSinkFootprintContract(t *testing.T) {
	ss := NewStreamSink(&collectBatch{}, 1<<12)
	ss.Access(0, false)
	ss.Access(100, true)
	for _, bad := range []int{-16, 0, 8, 24, 40} {
		if got := ss.Footprint(bad); got != -1 {
			t.Errorf("Footprint(%d) = %d, want -1", bad, got)
		}
	}
	if got := ss.Footprint(16); got != 2 {
		t.Errorf("Footprint(16) = %d, want 2", got)
	}
	if got := ss.Footprint(128); got != 1 {
		t.Errorf("Footprint(128) = %d, want 1", got)
	}
}

// TestStreamSinkGrowsBeyondHint covers the bitset growth path: a sink whose
// construction hint undersold the address space must still count exactly.
func TestStreamSinkGrowsBeyondHint(t *testing.T) {
	for _, hint := range []int{0, 64} {
		ss := NewStreamSink(&collectBatch{}, hint)
		tr := &Trace{}
		for i := 0; i < 2000; i++ {
			addr := uint64(i) * 48 // walks far past any small hint
			ss.Access(addr, false)
			tr.Access(addr, false)
		}
		if g, w := ss.Footprint(16), tr.Footprint(16); g != w {
			t.Errorf("hint %d: Footprint(16) = %d, want %d", hint, g, w)
		}
		if g, w := ss.Footprint(64), tr.Footprint(64); g != w {
			t.Errorf("hint %d: Footprint(64) = %d, want %d", hint, g, w)
		}
	}
}

// TestStreamSinkResetReuse runs one sink across three different programs with
// Reset in between and requires each run's aggregates to match a fresh sink
// fed the same stream — the per-worker reuse contract of the streaming
// engine.
func TestStreamSinkResetReuse(t *testing.T) {
	var reusedOut collectBatch
	reused := NewStreamSink(&reusedOut, 1<<18) // large first hint, later hints shrink
	for run := 0; run < 3; run++ {
		rng := rand.New(rand.NewSource(int64(100 + run)))
		hint := 1 << (18 - 2*run)
		var freshOut collectBatch
		fresh := NewStreamSink(&freshOut, hint)
		reusedOut.packed = reusedOut.packed[:0]
		reused.Reset(&reusedOut, hint)
		for i := 0; i < 5000+run*777; i++ {
			addr := uint64(rng.Intn(hint))
			write := rng.Intn(4) == 0
			fresh.Access(addr, write)
			reused.Access(addr, write)
		}
		if fresh.Len() != reused.Len() || fresh.Writes() != reused.Writes() {
			t.Fatalf("run %d: counts diverge: fresh %d/%d, reused %d/%d",
				run, fresh.Len(), fresh.Writes(), reused.Len(), reused.Writes())
		}
		for _, block := range []int{16, 64} {
			if f, r := fresh.Footprint(block), reused.Footprint(block); f != r {
				t.Fatalf("run %d: Footprint(%d): fresh %d, reused %d", run, block, f, r)
			}
		}
		if len(freshOut.packed) != len(reusedOut.packed) {
			t.Fatalf("run %d: delivered %d vs %d packed accesses", run, len(freshOut.packed), len(reusedOut.packed))
		}
	}
}

// TestStreamSinkZeroAllocSteadyState pins the tentpole's allocation contract:
// once constructed with an adequate memory hint, streaming performs zero
// per-access allocations — the access path is an append into a recycled
// chunk plus batched accounting.
func TestStreamSinkZeroAllocSteadyState(t *testing.T) {
	var out collectBatch
	out.packed = make([]uint64, 0, 1<<16)
	ss := NewStreamSink(&out, 1<<20)
	allocs := testing.AllocsPerRun(10, func() {
		out.packed = out.packed[:0]
		ss.Reset(&out, 1<<20)
		for i := 0; i < 3*StreamChunk; i++ {
			ss.Access(uint64(i)*8, i%5 == 0)
		}
		ss.Flush()
	})
	if allocs != 0 {
		t.Fatalf("steady-state streaming allocated %.1f times per run, want 0", allocs)
	}
}
