package main

import (
	"slices"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer: its name (<layer>.<call>), the span
// that caused it (-1 for a root), and its interval in seconds from the start
// of the run.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Run    string  `json:"run"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pass nil through the same code. Safe for
// concurrent use.
type Tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []Span
}

// NewTracer starts the clock of a traced run.
func NewTracer(run string) *Tracer {
	return &Tracer{run: run, t0: time.Now()}
}

// Begin opens a span and returns its id; End closes it.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	return t.Record(name, parent, now, now)
}

// End closes the span id.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Record adds a span for an interval measured elsewhere, such as one sweep
// between two progress callbacks.
func (t *Tracer) Record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Run: t.run,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return id
}

// Child adds a span of the given length inside parent, at its start or,
// with atEnd, at its end: a call the program makes inside one the benchmark
// times, whose length was measured on its own. The length is clipped to the
// parent's.
func (t *Tracer) Child(name string, parent int, length float64, atEnd bool) int {
	if t == nil || parent < 0 {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	length = max(0, min(length, p.End-p.Start))
	start, end := p.Start, p.Start+length
	if atEnd {
		start, end = p.End-length, p.End
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Run: t.run, Start: start, End: end})
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other
// (concurrent requests), so the covered part is the union of their
// intervals, clipped to the parent.
func SelfTimes(spans []Span) []float64 {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]float64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	total, end := 0.0, lo
	for _, iv := range ivs {
		s, e := max(iv[0], end), min(iv[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// Layer is the module a span name belongs to: the text before its first dot.
func Layer(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// LayerSelf sums self times per layer over the spans below the roots (the
// roots themselves excluded), and returns them with the roots' total
// duration. Parents must precede their children in spans, as a Tracer
// records them.
func LayerSelf(spans []Span, roots []int) (map[string]float64, float64) {
	self := SelfTimes(spans)
	isRoot := make([]bool, len(spans))
	total := 0.0
	for _, r := range roots {
		isRoot[r] = true
		total += spans[r].End - spans[r].Start
	}
	under := make([]bool, len(spans))
	out := make(map[string]float64)
	for i, s := range spans {
		if s.Parent < 0 {
			continue
		}
		under[i] = isRoot[s.Parent] || under[s.Parent]
		if under[i] {
			out[Layer(s.Name)] += self[i]
		}
	}
	return out, total
}
