package main

// In-memory span recorder for the traced run. Spans are recorded only
// here, around the benchmark's calls into the program's packages; the
// program itself is not instrumented. Spans stay in memory until the
// run ends and are then written as JSONL.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call. Parent is the enclosing span's ID (0 = none);
// Run is shared by every span of one fault-injection run (0 = not part
// of a run).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Run    int           `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	runs  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newRun allocates a run ID.
func (t *tracer) newRun() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	return t.runs
}

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent, run int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// timed records fn as one span.
func (t *tracer) timed(name string, parent, run int, fn func() error) error {
	id := t.start(name, parent, run)
	defer t.end(id)
	return fn()
}

// durations returns the durations of every closed span with this name,
// in start order.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// total sums the durations of every span with this name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, x := range t.durations(name) {
		d += x
	}
	return d
}

// layerTime is one span name's aggregate: how many spans, their total
// duration, and their self time (duration minus the part of the
// interval its child spans cover).
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates every span name, sorted by descending self time.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*layerTime)
	for _, s := range spans {
		if s.End == 0 {
			continue
		}
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Count++
		lt.Total += s.dur()
		lt.Self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers. Children of a pool span run concurrently and
// overlap, so the union is merged rather than summed.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End == 0 || hi <= lo {
			continue
		}
		iv = append(iv, [2]time.Duration{lo, hi})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes every span, one JSON object per line.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return bw.Flush()
}
