package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"harmony/internal/core"
	"harmony/internal/space"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the child process began its workload; Parent is the index of
// the span that caused it (-1 for a root); Run groups the spans of
// one campaign or one online session.
type span struct {
	Name   string `json:"name"`
	Run    int    `json:"run"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-layer samples in memory for the traced
// run and writes the spans out when the run ends. A nil *tracer is a
// valid disabled tracer: every method is a no-op, so the untraced run
// pays nothing for the call sites.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// samples holds per-layer latency samples in the unit named by
	// the key's suffix (_ms, _us, _ns).
	samples map[string][]float64
	// counts holds per-layer event counts.
	counts map[string]float64
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, samples: make(map[string][]float64), counts: make(map[string]float64)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, run, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Run: run, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span begun as id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// sample records one measurement of the named per-layer quantity.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// add increments the named per-layer count.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// selfTime returns the summed duration of the spans named parent
// minus the part of each interval covered by its direct children
// named child. Overlapping children (parallel workers) are merged
// before subtraction, so self time is never negative.
func (t *tracer) selfTime(parent, child string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Name == child && s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var self int64
	for i, s := range t.spans {
		if s.Name != parent || s.End < 0 {
			continue
		}
		self += (s.End - s.Start) - covered(kids[i])
	}
	return time.Duration(self)
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curE {
			if x[1] > curE {
				curE = x[1]
			}
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeSpans writes every span as one JSON line to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// latencies is a concurrency-safe latency sample, kept in both the
// traced and the untraced run because the end-to-end round metrics
// are made from it.
type latencies struct {
	mu sync.Mutex
	us []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.us = append(l.us, float64(d)/float64(time.Microsecond))
	l.mu.Unlock()
}

func (l *latencies) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.us...)
}

// timedObjective wraps an objective so every evaluation is one round
// of the offline engine: its wall time goes into rounds, and when
// tracing, an "objective" span under the campaign span.
func timedObjective(obj core.Objective, rounds *latencies, tr *tracer, run, parent int) core.Objective {
	return func(ctx context.Context, cfg space.Config) (float64, error) {
		id := tr.begin("objective", run, parent)
		t0 := time.Now()
		v, err := obj(ctx, cfg)
		d := time.Since(t0)
		tr.end(id)
		rounds.add(d)
		if tr != nil {
			tr.add("objective.calls", 1)
			tr.add("objective.busy_s", d.Seconds())
			tr.sample("objective_ms", float64(d)/float64(time.Millisecond))
		}
		return v, err
	}
}

// tracedCache wraps a core.PointCache to time and count lookups.
type tracedCache struct {
	inner       core.PointCache
	tr          *tracer
	run, parent int
}

func (c *tracedCache) Lookup(pt space.Point) (float64, bool) {
	id := c.tr.begin("history.lookup", c.run, c.parent)
	t0 := time.Now()
	v, ok := c.inner.Lookup(pt)
	c.tr.sample("history.lookup_us", float64(time.Since(t0))/float64(time.Microsecond))
	c.tr.end(id)
	c.tr.add("history.lookups", 1)
	if ok {
		c.tr.add("history.hits", 1)
	}
	return v, ok
}

func (c *tracedCache) Store(pt space.Point, v float64) { c.inner.Store(pt, v) }

// tracedSurrogate wraps a core.Surrogate to time its predictions.
type tracedSurrogate struct {
	inner       core.Surrogate
	tr          *tracer
	run, parent int
}

func (s *tracedSurrogate) Predict(pt space.Point, cfg space.Config) (float64, bool) {
	id := s.tr.begin("surrogate.predict", s.run, s.parent)
	t0 := time.Now()
	v, ok := s.inner.Predict(pt, cfg)
	s.tr.sample("surrogate.predict_us", float64(time.Since(t0))/float64(time.Microsecond))
	s.tr.end(id)
	return v, ok
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks, or 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

func usSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Microsecond) }
