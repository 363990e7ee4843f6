package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one request share Req; Parent links a span to the span that
// caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them when the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 = root) for request req (0 = none) and
// returns the function that closes it and its id, for children.
func (t *tracer) begin(name string, parent, req int64) (end func(), id int64) {
	if t == nil {
		return func() {}, 0
	}
	t.mu.Lock()
	t.next++
	id = t.next
	t.mu.Unlock()
	start := time.Since(t.t0).Nanoseconds()
	return func() {
		s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: time.Since(t.t0).Nanoseconds()}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}, id
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// timed runs f inside a span and returns its wall time.
func (t *tracer) timed(name string, parent int64, f func() error) (time.Duration, error) {
	end, _ := t.begin(name, parent, 0)
	start := time.Now()
	err := f()
	d := time.Since(start)
	end()
	return d, err
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration // Total minus the part of each span its children cover
}

// stats groups spans by name. A span's self time is its duration minus the
// union of its children's intervals, clipped to the span.
func (t *tracer) stats() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := make(map[string]*spanStat)
	for _, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		st.Self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// formatStats renders the per-span-name table printed by traced runs.
func formatStats(stats []spanStat) string {
	var b []byte
	b = fmt.Appendf(b, "%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range stats {
		b = fmt.Appendf(b, "%-34s %8d %12.3f %12.3f\n", s.Name, s.Count, ms(s.Total), ms(s.Self))
	}
	return string(b)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
