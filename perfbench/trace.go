package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark side of the boundary. Spans of one op share Op; Parent is 0 for
// a span that no other span caused.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Op     int64              `json:"op"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span; close it with end.
func (t *tracer) begin(op, parent int64, name string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(t.epoch)}
}

// end closes s, attaching the counts the layer returned for this call.
func (t *tracer) end(s *span, counts map[string]float64) {
	if t == nil {
		return
	}
	s.End = time.Since(t.epoch)
	s.Counts = counts
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// record adds a span whose interval the program reported itself (job
// snapshot timestamps), placed on the tracer's clock.
func (t *tracer) record(op, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	t.mu.Unlock()
}

// id returns the span's ID, or 0 for the nil span of an untraced run.
func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// selfMs returns each span's duration minus the union of its children's
// intervals, in milliseconds, keyed by span ID.
func selfMs(spans []span) map[int64]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			start, end := max(k.Start, s.Start), min(k.End, s.End)
			if end <= start {
				continue
			}
			if start > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = start, end
			} else if end > curEnd {
				curEnd = end
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.ID] = float64(s.End-s.Start-covered) / 1e6
	}
	return self
}

// layerStats aggregates the recorded spans by name.
type layerStats struct {
	spans []span
	self  map[int64]float64
}

func (t *tracer) stats() *layerStats {
	if t == nil {
		return &layerStats{self: map[int64]float64{}}
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	return &layerStats{spans: spans, self: selfMs(spans)}
}

func (ls *layerStats) named(name string) []span {
	var out []span
	for _, s := range ls.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfSum is the total self time of the named spans, in milliseconds.
func (ls *layerStats) selfSum(name string) float64 {
	var sum float64
	for _, s := range ls.named(name) {
		sum += ls.self[s.ID]
	}
	return sum
}

// durations lists the named spans' wall durations in milliseconds.
func (ls *layerStats) durations(name string) []float64 {
	var out []float64
	for _, s := range ls.named(name) {
		out = append(out, s.ms())
	}
	return out
}

// countSum totals one count over the named spans.
func (ls *layerStats) countSum(name, key string) float64 {
	var sum float64
	for _, s := range ls.named(name) {
		sum += s.Counts[key]
	}
	return sum
}

// write saves every span as JSON, for a later change to show where a saving
// landed.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{t.epoch, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
