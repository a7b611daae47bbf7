package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files. Spans of one operation share Trace ("workload/rep").
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled by finish
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so measured code paths are the same traced or not.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id; parent is -1 for a root.
func (r *recorder) begin(trace string, parent int, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// endAs closes a span under a new name.
func (r *recorder) endAs(id int, name string) {
	if r == nil || id < 0 {
		return
	}
	r.end(id)
	r.mu.Lock()
	r.spans[id].Name = name
	r.mu.Unlock()
}

// finish computes every span's self time — its duration minus the part
// of that interval its child spans cover — and returns the spans.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(r.spans[k].Start, edge), min(r.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
	return append([]span(nil), r.spans...)
}

// spanSeconds sums the durations of the spans called name, in seconds.
func spanSeconds(spans []span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

func writeSpans(path string, spans []span) error {
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
