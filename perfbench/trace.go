package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself is not instrumented).
type span struct {
	Trace  string `json:"trace"` // the tracer that recorded it: a workload or probe
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // the op the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	// N is the work the span covers where one is counted: visited states,
	// polls, recorded events or the calls in a timed batch.
	N int `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced ops run the same code with tracing off.
type tracer struct {
	name  string
	t0    time.Time
	spans []span
}

func newTracer(name string) *tracer { return &tracer{name: name, t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, op int, start, end time.Time, n int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Trace: t.name, ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), N: n,
	})
	return id
}

// begin opens a span that end closes; spans opened this way may be parents.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Now()
	return t.add(name, parent, op, now, now, 0)
}

func (t *tracer) end(id, n int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.N = n
}

// named returns the spans with the given name, in recording order.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// perOp sums the durations (ms) and counts of the spans named name per op.
func (t *tracer) perOp(name string) (durMS map[int]float64, n map[int]int) {
	durMS, n = map[int]float64{}, map[int]int{}
	for _, s := range t.named(name) {
		durMS[s.Op] += ms(s.dur())
		n[s.Op] += s.N
	}
	return durMS, n
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children count once, and a child's
// time outside its parent does not count).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi) the union of the spans' intervals
// covers.
func covered(lo, hi int64, spans []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return time.Duration(total)
}

// selfByName returns the median self time (ms) of each span name.
func (t *tracer) selfByName() map[string]float64 {
	self := selfTimes(t.spans)
	byName := map[string][]float64{}
	for _, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], ms(self[s.ID]))
	}
	out := make(map[string]float64, len(byName))
	for name, xs := range byName {
		out[name] = median(xs)
	}
	return out
}

// writeSpans stores the tracers' spans as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return fmt.Errorf("spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
