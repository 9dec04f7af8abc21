package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the benchmark made into a layer, or (parent -1) a whole
// operation. Spans of one operation share its op id.
type span struct {
	op         int64
	name       string
	parent     int // index of the parent within the op's spans; -1 for the root
	start, end int64
}

// spanLog keeps the traced run's spans in memory until the run ends.
type spanLog struct {
	ops   atomic.Int64 // op ids, one per request
	mu    sync.Mutex
	spans []span
}

// opSpans builds the spans of one operation: a root covering the whole
// operation and one child per layer call, in call order.
type opSpans struct {
	op    int64
	spans []span
}

// begin starts the spans of a new operation due at due; nil when untraced.
func (s *spanLog) begin(due time.Time) *opSpans {
	if s == nil {
		return nil
	}
	op := s.ops.Add(1)
	return &opSpans{op: op, spans: []span{{op: op, name: "bench.op", parent: -1, start: due.UnixNano()}}}
}

// call times fn as a child span of the operation; o may be nil (untraced).
func (o *opSpans) call(name string, fn func()) {
	if o == nil {
		fn()
		return
	}
	start := time.Now().UnixNano()
	fn()
	o.spans = append(o.spans, span{op: o.op, name: name, parent: 0, start: start, end: time.Now().UnixNano()})
}

func (s *spanLog) end(o *opSpans, end time.Time) {
	if o == nil {
		return
	}
	o.spans[0].end = end.UnixNano()
	s.mu.Lock()
	s.spans = append(s.spans, o.spans...)
	s.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time — a span's
// duration minus the part of it its children cover — and the span count.
func (s *spanLog) selfTimes() map[string][2]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][2]float64)
	for i := 0; i < len(s.spans); {
		j := i + 1
		for j < len(s.spans) && s.spans[j].parent >= 0 {
			j++
		}
		op := s.spans[i:j]
		for k, sp := range op {
			self := sp.end - sp.start
			for _, c := range op {
				if c.parent == k {
					self -= min(c.end, sp.end) - max(c.start, sp.start)
				}
			}
			acc := out[sp.name]
			acc[0] += float64(max(self, 0)) / float64(time.Millisecond)
			acc[1]++
			out[sp.name] = acc
		}
		i = j
	}
	return out
}

// durations returns the durations in ms of every span with the given name.
func (s *spanLog) durations(name string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, sp := range s.spans {
		if sp.name == name {
			out = append(out, float64(sp.end-sp.start)/float64(time.Millisecond))
		}
	}
	return out
}

// write saves the spans as one JSON object per line, then a self-time
// summary line per span name.
func (s *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	s.mu.Lock()
	for _, sp := range s.spans {
		fmt.Fprintf(w, "{\"op\":%d,\"name\":%q,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n", sp.op, sp.name, sp.parent, sp.start, sp.end)
	}
	s.mu.Unlock()
	self := s.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "{\"self\":%q,\"self_ms_total\":%.3f,\"spans\":%d}\n", n, self[n][0], int64(self[n][1]))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
