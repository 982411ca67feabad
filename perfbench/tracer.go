package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's origin; Parent indexes the enclosing span
// (-1 for a root) and Slot is the simulation slot the span belongs to (-1
// when it is not slot-scoped).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Slot   int    `json:"slot"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay no clock reads for it. Spans may be opened
// from several goroutines (the serve workload's sender and the server's
// service loop), hence the mutex.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, slot int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Slot: slot})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-measured interval.
func (t *tracer) add(name string, start, end time.Time, parent, slot int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)), Parent: parent, Slot: slot})
	return len(t.spans) - 1
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as JSON.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once,
// and a child's time outside its parent is ignored). Unclosed spans have
// zero duration.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		ivs = ivs[:0]
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if hi < lo {
				continue
			}
			lo, hi = max(lo, s.Start), min(hi, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		curLo, curHi = -1, -1
		for _, v := range ivs {
			if v.lo > curHi {
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		covered += curHi - curLo
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// selfByName sums self times per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// coverage returns the share of span id's duration that its children cover:
// 1 means the instrumented steps beneath it account for all of its time.
func coverage(spans []span, id int) float64 {
	if id < 0 || id >= len(spans) {
		return 0
	}
	d := spans[id].End - spans[id].Start
	if d <= 0 {
		return 0
	}
	return 1 - float64(selfTimes(spans)[id])/float64(d)
}
