package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one check or
// upload share an ID; Parent indexes the span that caused this one (-1 for
// a root).
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counts in memory until the run ends. A nil
// *tracer is the untraced run: every method is a no-op.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// start opens a span and returns its index for end and for children.
func (t *tracer) start(id int64, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return time.Duration(now - t.spans[i].Start)
}

// count adds v to the named count recorded at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// durations returns the durations of every closed span with the given
// name, in start order.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered(children[i], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of the intervals, clipped to
// [lo, hi]; concurrent children are not counted twice.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, c := range iv {
		s, e := max64(c[0], cur), min64(c[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// writeFile dumps the spans, the counts, the self times and the run's
// provenance as one JSON document.
func (t *tracer) writeFile(path string, prov provenance) error {
	self := map[string]int64{}
	for k, v := range t.selfTimes() {
		self[k] = int64(v)
	}
	t.mu.Lock()
	doc := struct {
		Provenance provenance         `json:"provenance"`
		SelfNs     map[string]int64   `json:"self_ns"`
		Counts     map[string]float64 `json:"counts"`
		Spans      []span             `json:"spans"`
	}{prov, self, t.counts, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
