package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by benchmark code around the
// layer's public entry point. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int64  `json:"parent"` // 0 for a root span
	Key    string `json:"key,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span ID, so children can name a parent whose end is not
// known yet.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// ns converts a wall-clock time to the trace's nanosecond timeline.
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// mk builds a span with a reserved ID.
func (t *tracer) mk(id int64, name string, parent int64, start, end time.Time, key string) span {
	return span{ID: id, Name: name, Start: t.ns(start), End: t.ns(end), Parent: parent, Key: key}
}

func (t *tracer) addAll(ss []span) {
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// snapshot returns the recorded spans ordered by ID.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// spanBuf collects one goroutine's spans locally and hands them to the
// tracer in one locked append.
type spanBuf struct {
	t  *tracer
	ss []span
}

func (b *spanBuf) add(name string, parent int64, start, end time.Time) {
	b.ss = append(b.ss, b.t.mk(b.t.newID(), name, parent, start, end, ""))
}

func (b *spanBuf) addID(id int64, name string, parent int64, start, end time.Time, key string) {
	b.ss = append(b.ss, b.t.mk(id, name, parent, start, end, key))
}

func (b *spanBuf) flush() {
	b.t.addAll(b.ss)
	b.ss = b.ss[:0]
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children's intervals cover.
func selfTimes(ss []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range ss {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(ss))
	for _, s := range ss {
		self[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a > curHi:
			total += curHi - curLo
			curLo, curHi = a, b
		case b > curHi:
			curHi = b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, ss []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range ss {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanIndex groups spans by name for the per-layer summaries.
type spanIndex struct {
	byName map[string][]span
	self   map[int64]int64
}

func indexSpans(ss []span) spanIndex {
	ix := spanIndex{byName: make(map[string][]span), self: selfTimes(ss)}
	for _, s := range ss {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
	}
	return ix
}

// durs returns the named spans' durations in the given unit.
func (ix spanIndex) durs(name string, unit time.Duration) []float64 {
	ss := ix.byName[name]
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.dur()) / float64(unit)
	}
	return out
}

// total is the summed duration of the named spans in nanoseconds.
func (ix spanIndex) total(name string) float64 {
	var t int64
	for _, s := range ix.byName[name] {
		t += s.dur()
	}
	return float64(t)
}

// selfTotal is the summed self time of the named spans in nanoseconds.
func (ix spanIndex) selfTotal(name string) float64 {
	var t int64
	for _, s := range ix.byName[name] {
		t += ix.self[s.ID]
	}
	return float64(t)
}

// layerSummary is the per-span-name roll-up written next to spans.jsonl.
type layerSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50US   float64 `json:"p50_us"`
}

func (ix spanIndex) summary() []layerSummary {
	var out []layerSummary
	for name := range ix.byName {
		p50, _ := percentile(ix.durs(name, time.Microsecond), 0.5)
		out = append(out, layerSummary{
			Name: name, Count: len(ix.byName[name]),
			TotalMS: ix.total(name) / 1e6, SelfMS: ix.selfTotal(name) / 1e6, P50US: p50,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}
