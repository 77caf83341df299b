package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent is the index of the
// enclosing span (-1 for a root); Req groups the spans of one request (job
// ID or frame number).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory; nothing is written until the run ends. It
// is used from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index. A nil tracer records nothing,
// so untraced runs share the traced runs' code.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req})
	i := len(t.spans) - 1
	t.spans[i].Start = int64(time.Since(t.t0))
	return i
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// layerTimes sums, per span name, the span count, total duration and self
// time (duration minus the part covered by child spans).
type layerTime struct {
	Calls int
	Total time.Duration
	Self  time.Duration
}

func (t *tracer) layerTimes() map[string]layerTime {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.Calls++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - children[i])
		out[s.Name] = lt
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
