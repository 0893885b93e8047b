package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Req;
// Parent is the ID of the span that caused it (0 for an operation's root).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-layer counts in memory; they are written out
// when the run ends. A nil tracer records nothing. It is used from the
// one client goroutine only.
type tracer struct {
	t0     time.Time
	ids    int64
	spans  []span
	counts map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string][]float64{}}
}

// newReq returns a fresh operation id.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	t.ids++
	return t.ids
}

// add records a span and returns its id.
func (t *tracer) add(name string, req, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.newReq()
	t.spans = append(t.spans, span{name, req, id, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	return id
}

// call times fn as a span.
func (t *tracer) call(name string, req, parent int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, req, parent, start, end)
	return end.Sub(start)
}

// count records one observation of a per-layer count.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.counts[name] = append(t.counts[name], v)
}

// durations returns the durations of every span called name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func (t *tracer) values(name string) []float64 {
	return append([]float64(nil), t.counts[name]...)
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close trace: %w", err)
	}
	return path, nil
}
