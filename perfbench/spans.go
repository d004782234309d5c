package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer of the program, timed
// from outside. Spans of one run or one HTTP request share a trace ID.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Trace  int    `json:"trace"`
	Layer  string `json:"layer"` // module name; "" marks the benchmark's own grouping spans
	Name   string `json:"name"`  // the call that was timed
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing switched off: every method is a no-op, so the untraced and the
// traced runs share one code path.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (r *recorder) begin(parent, trace int, layer, name string) int {
	if r == nil {
		return 0
	}
	start := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Layer: layer, Name: name, Start: start})
	return len(r.spans)
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	end := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// record stores a span whose bounds the caller measured itself.
func (r *recorder) record(parent, trace int, layer, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Layer: layer, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
}

// selfTimes returns each span's self time in seconds: its duration minus
// the part of its interval that its children cover. Children may run
// concurrently, so their intervals are merged before subtracting.
func selfTimes(spans []span) []float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, curStart, curEnd := int64(0), int64(-1), int64(-1)
		for _, k := range kids {
			start, end := max(k.Start, s.Start), min(k.End, s.End)
			if end <= start {
				continue
			}
			if start > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = start, end
			} else if end > curEnd {
				curEnd = end
			}
		}
		covered += curEnd - curStart
		self[i] = float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// layerSelf sums self time per layer, and per layer-and-name under the
// key "layer/name".
func layerSelf(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, t := range selfTimes(spans) {
		s := spans[i]
		out[s.Layer] += t
		out[s.Layer+"/"+s.Name] += t
	}
	return out
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
