package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; Parent is the index of the
// enclosing span, or -1 at the top.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends. The benchmark's own
// goroutine is the only caller, so a stack of open spans gives each new
// span its parent.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new operation id; spans opened after it carry it.
func (t *tracer) nextOp() { t.op++ }

func (t *tracer) begin(layer, name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op,
	})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns each layer's self time in seconds over spans[from:]:
// a span's duration minus the part its child spans cover. Children nest
// inside their parent and do not overlap one another, so the covered part
// is the sum of the direct children's durations.
func selfTimes(spans []span, from int) map[string]float64 {
	child := make([]int64, len(spans))
	for i := from; i < len(spans); i++ {
		if p := spans[i].Parent; p >= from {
			child[p] += spans[i].End - spans[i].Start
		}
	}
	out := map[string]float64{}
	for i := from; i < len(spans); i++ {
		s := spans[i]
		out[s.Layer] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// write stores the spans as one JSON document under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
