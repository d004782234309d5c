package vm

import "math/bits"

// Pack encodes one access in the packed stream representation: the address
// in the upper 63 bits and the write flag in bit 0.
func Pack(addr uint64, write bool) uint64 {
	p := addr << 1
	if write {
		p |= 1
	}
	return p
}

// Unpack decodes one packed access.
func Unpack(p uint64) (addr uint64, write bool) {
	return p >> 1, p&1 == 1
}

// BatchSink consumes packed accesses in bulk — the zero-dispatch,
// zero-allocation simulation path (one virtual call per batch instead of
// one per access).
type BatchSink interface {
	AccessBatch(packed []uint64)
}

// StreamChunk is the number of packed accesses a StreamSink buffers before
// handing them to its BatchSink: large enough to amortize the per-batch
// virtual call and the simulator's per-chunk group switching, small enough
// (32 KB) that the chunk stays L1/L2-resident between the producing VM loop
// and the consuming simulator.
const StreamChunk = 4096

// fpGrain is the footprint tracker's granularity in bytes: the finest block
// size the feature vector asks for (stats.FFootprint16). Coarser footprints
// are derived exactly by folding, so one bitset serves every feature.
const (
	fpGrain = 16
	fpShift = 4 // log2(fpGrain)
)

// StreamSink fuses trace recording and simulation: it implements MemSink on
// the producing side (the VM's per-access stream) and forwards packed
// accesses to a BatchSink (typically cache.MultiSim) in fixed-size chunks,
// without ever materializing a trace. On top of the chunk buffer it
// maintains, inline in the access path, the aggregate trace statistics the
// feature vector needs: access/write counts and the distinct-block
// footprint bitset.
//
// After the program halts, call Flush to push the final partial chunk.
// A StreamSink performs no per-access allocation once constructed (the
// footprint bitset is presized from the VM memory size), and is reusable
// across programs via Reset — the per-worker reuse that keeps parallel
// characterization from churning the allocator.
type StreamSink struct {
	sink   BatchSink
	buf    []uint64 // packed chunk in flight; cap StreamChunk
	total  int
	writes int
	fp     []uint64 // bitset over fpGrain-byte blocks
}

// NewStreamSink returns a sink streaming into s. memHint, when positive, is
// the address-space size in bytes (vm.VM.MemSize) and presizes the footprint
// bitset so the access path never allocates; a zero hint starts empty and
// grows on demand.
func NewStreamSink(s BatchSink, memHint int) *StreamSink {
	ss := &StreamSink{buf: make([]uint64, 0, StreamChunk)}
	ss.Reset(s, memHint)
	return ss
}

// Reset rebinds the sink for a new program: the chunk buffer is emptied, the
// counters zeroed, and the footprint bitset cleared (regrown if memHint asks
// for a larger address space). The buffer and bitset allocations are reused,
// so a per-worker StreamSink characterizes any number of kernels with no
// steady-state allocation.
func (s *StreamSink) Reset(sink BatchSink, memHint int) {
	s.sink = sink
	s.buf = s.buf[:0]
	s.total = 0
	s.writes = 0
	if words := fpWords(memHint); words > len(s.fp) {
		s.fp = make([]uint64, words)
	} else {
		for i := range s.fp {
			s.fp[i] = 0
		}
	}
}

// fpWords returns the bitset length covering memHint bytes of address space.
func fpWords(memHint int) int {
	if memHint <= 0 {
		return 0
	}
	blocks := (memHint + fpGrain - 1) / fpGrain
	return (blocks + 63) / 64
}

// Access implements MemSink: pack and append. All aggregate accounting
// (write count, footprint bits) happens per chunk at flush time, keeping the
// per-access path to an append and a length check. The VM interpreter
// devirtualizes this call: when its sink is a *StreamSink it pushes packed
// accesses inline instead of going through the MemSink interface (one
// indirect call per memory instruction was a measurable slice of
// characterization time).
func (s *StreamSink) Access(addr uint64, write bool) {
	p := addr << 1
	if write {
		p |= 1
	}
	s.push(p)
}

// push appends one packed access, handing the chunk on when it fills. Kept
// minimal so it inlines into the VM's memory-instruction cases.
func (s *StreamSink) push(p uint64) {
	s.buf = append(s.buf, p)
	if len(s.buf) >= StreamChunk {
		s.flushChunk()
	}
}

// flushChunk accounts the buffered accesses and forwards them to the batch
// sink. The accounting loop runs over the L1-resident chunk in one sweep —
// sequential, branch-light — instead of interleaving bitset updates with the
// interpreter's scattered access pattern.
func (s *StreamSink) flushChunk() {
	chunk := s.buf
	s.total += len(chunk)
	w := 0
	fp := s.fp
	for _, p := range chunk {
		w += int(p & 1)
		b := p >> (1 + fpShift)
		if wi := int(b >> 6); wi < len(fp) {
			fp[wi] |= 1 << (b & 63)
		} else {
			s.growFP(wi + 1)
			fp = s.fp
			fp[wi] |= 1 << (b & 63)
		}
	}
	s.writes += w
	s.sink.AccessBatch(chunk)
	s.buf = chunk[:0]
}

// growFP extends the bitset to at least words entries (only reached when the
// construction hint undersold the address space).
func (s *StreamSink) growFP(words int) {
	grown := make([]uint64, words)
	copy(grown, s.fp)
	s.fp = grown
}

// Flush pushes the buffered partial chunk to the batch sink. Call it after
// the program halts; it is a no-op when the buffer is empty.
func (s *StreamSink) Flush() {
	if len(s.buf) > 0 {
		s.flushChunk()
	}
}

// Len returns the number of accesses streamed since the last Reset. Like the
// other aggregate accessors it flushes first, so the count (and the batch
// sink) always reflects every access pushed so far.
func (s *StreamSink) Len() int {
	s.Flush()
	return s.total
}

// Writes returns the number of write accesses streamed.
func (s *StreamSink) Writes() int {
	s.Flush()
	return s.writes
}

// Reads returns the number of read accesses streamed.
func (s *StreamSink) Reads() int {
	s.Flush()
	return s.total - s.writes
}

// Footprint returns the number of distinct blockBytes-sized blocks touched,
// equal to Trace.Footprint over the same access stream. The
// tracker records at fpGrain (16-byte) granularity, so blockBytes must be a
// positive multiple of fpGrain — which covers both feature-vector block
// sizes (16 and 64). Other sizes return -1 to make a misuse loud in tests
// without panicking the pipeline.
func (s *StreamSink) Footprint(blockBytes int) int {
	if blockBytes < fpGrain || blockBytes%fpGrain != 0 {
		return -1
	}
	s.Flush()
	ratio := uint64(blockBytes / fpGrain)
	if ratio == 1 {
		n := 0
		for _, w := range s.fp {
			n += bits.OnesCount64(w)
		}
		return n
	}
	// Walk set bits in ascending block order and count distinct coarse
	// groups; runs at footprint size, not trace length.
	count := 0
	last := ^uint64(0)
	for wi, w := range s.fp {
		for w != 0 {
			b := uint64(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
			if g := b / ratio; g != last {
				last = g
				count++
			}
		}
	}
	return count
}
