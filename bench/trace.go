package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one replayed operation (a search, a
// sweep config, a job) share a trace ID; Parent is the span ID of the
// enclosing span, 0 for a root.
type span struct {
	Name    string `json:"name"`
	TraceID int    `json:"trace_id"`
	SpanID  int    `json:"span_id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run writes them out. Only the
// goroutine driving a replay records spans, so it needs no lock.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name string, trace, parent int) int {
	t.spans = append(t.spans, span{
		Name: name, TraceID: trace, SpanID: len(t.spans) + 1, Parent: parent,
		StartNS: int64(time.Since(t.origin)),
	})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *tracer) end(id int) { t.spans[id-1].EndNS = int64(time.Since(t.origin)) }

// do records fn as one span.
func (t *tracer) do(name string, trace, parent int, fn func()) {
	id := t.start(name, trace, parent)
	fn()
	t.end(id)
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its children cover. Children may overlap each other (islands
// step in parallel), so the covered part is the length of their union.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.SpanID])
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped to s.
func covered(s span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// durations lists the durations of every span with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// total sums the durations of every span with the given name.
func total(spans []span, name string) time.Duration {
	var t time.Duration
	for _, d := range durations(spans, name) {
		t += d
	}
	return t
}

// medianOf is the median of ds in the given unit (time.Millisecond for ms).
func medianOf(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}
