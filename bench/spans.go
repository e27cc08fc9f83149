package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans nest on
// the single goroutine that drives a workload, so a span's children never
// overlap each other.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil or paused tracer records
// nothing, so untraced code pays one check per call site.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int32
	paused bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// pause stops (true) or resumes (false) recording. Spans already open
// still close normally.
func (t *tracer) pause(p bool) {
	if t != nil {
		t.paused = p
	}
}

// begin opens a span named "layer.op" under the innermost open span.
func (t *tracer) begin(name string) int32 {
	if t == nil || t.paused {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// layerOf is the module a span name belongs to: the text before the dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// children returns each span's child indices.
func (t *tracer) children() [][]int32 {
	kids := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	return kids
}

// selfNs is span i's duration minus the time its children cover.
func (t *tracer) selfNs(i int32, kids [][]int32) int64 {
	s := t.spans[i]
	self := s.End - s.Start
	for _, k := range kids[i] {
		self -= t.spans[k].End - t.spans[k].Start
	}
	return self
}

// totals sums, per span name, the inclusive duration of every span with
// that name, in seconds.
func (t *tracer) totals() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start) / 1e9
	}
	return out
}

// segmentSummary covers the subtrees rooted at the spans named root (the
// timed segments): per layer the self time, per span name the inclusive
// time, and the wall time the roots cover, all in seconds.
type segmentSummary struct {
	self, inclusive map[string]float64
	wall            float64
}

func (t *tracer) summarize(root string) segmentSummary {
	kids := t.children()
	sum := segmentSummary{self: map[string]float64{}, inclusive: map[string]float64{}}
	var walk func(i int32)
	walk = func(i int32) {
		s := t.spans[i]
		sum.self[layerOf(s.Name)] += float64(t.selfNs(i, kids)) / 1e9
		sum.inclusive[s.Name] += float64(s.End-s.Start) / 1e9
		for _, k := range kids[i] {
			walk(k)
		}
	}
	for i, s := range t.spans {
		if s.Name == root {
			sum.wall += float64(s.End-s.Start) / 1e9
			walk(int32(i))
		}
	}
	return sum
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// traceFile is the JSON document -spans writes: host metadata plus every
// episode's spans.
type traceFile struct {
	Host     hostInfo `json:"host"`
	Workload string   `json:"workload"`
	Episodes [][]span `json:"episodes"`
}

// writeSpans writes a traced report's spans to path as a traceFile.
func (rep *report) writeSpans(path string) error {
	doc := traceFile{Host: rep.host, Workload: rep.w.name}
	for _, e := range rep.eps {
		doc.Episodes = append(doc.Episodes, e.tr.spans)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("bench: encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("bench: write trace: %w", err)
	}
	return nil
}
