package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer: its name, its
// interval in nanoseconds since the tracer started, the span that
// caused it (0 for a root) and the operation it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op costing one nil check, so the
// workloads call it unconditionally.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID and start time; finish with end.
func (t *tracer) begin() (id int64, start time.Time) {
	start = time.Now()
	if t == nil {
		return 0, start
	}
	return t.next.Add(1), start
}

// end records span id, begun at start, as name under parent and op.
func (t *tracer) end(id, parent, op int64, name string, start time.Time) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(),
		End:   now.Sub(t.epoch).Nanoseconds(),
	})
	t.mu.Unlock()
}

// call runs fn as a span named name under parent and returns fn's
// duration.
func (t *tracer) call(parent, op int64, name string, fn func()) time.Duration {
	id, start := t.begin()
	fn()
	d := time.Since(start)
	t.end(id, parent, op, name, start)
	return d
}

// selfTimes returns, per span name, the summed self time in nanoseconds
// (duration minus the part of it its children cover) and the span
// count.
func selfTimes(spans []span) map[string][2]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][2]int64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		agg := out[s.Name]
		agg[0] += s.End - s.Start - covered
		agg[1]++
		out[s.Name] = agg
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
