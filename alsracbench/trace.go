package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a hook boundary. Spans of one Session.Step
// (flow workloads) or one job (daemon workload) share ID; Parent is the
// index of the enclosing span in the tracer, -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Replayed marks a span whose duration was measured by re-running the
	// layer's public function on a saved input after the run (its start is
	// laid inside its parent), not inside the traced interval.
	Replayed bool `json:"replayed,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a span and returns its index.
func (t *tracer) add(name string, id, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: t.ns(start), End: t.ns(end)})
	return len(t.spans) - 1
}

// addReplayedAt records a child of parent whose duration d was measured
// outside the parent's interval. It is laid at the parent's start, or at
// its end when atEnd is set, clipped to the parent's length.
func (t *tracer) addReplayedAt(name string, id, parent int, d time.Duration, atEnd bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	start, end := p.Start, p.Start+d.Nanoseconds()
	if atEnd {
		start, end = p.End-d.Nanoseconds(), p.End
	}
	start, end = max(start, p.Start), min(end, p.End)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end, Replayed: true})
	return len(t.spans) - 1
}

// shorten moves a recorded span's end back by d, not past its start.
func (t *tracer) shorten(i int, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = max(t.spans[i].Start, t.spans[i].End-d.Nanoseconds())
}

// setEnd moves a recorded span's end (used once a later hook tells where
// an open phase stopped).
func (t *tracer) setEnd(i int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = t.ns(end)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// selfTimes returns, per span name, the summed self time in seconds: a
// span's duration minus the part of it covered by its children.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		covered := coveredNs(s, children[i])
		out[s.Name] += float64(s.dur()-covered) / 1e9
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's interval.
func coveredNs(parent span, kids []span) int64 {
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
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// totals sums span durations per name, in seconds.
func totals(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.dur()) / 1e9
	}
	return out
}

// breakdown renders the self-time table of one traced run: every span
// name's self time as a share of the root spans' total, largest first. The
// root name's own self time is the residual no hook accounts for.
func breakdown(w io.Writer, workload, root string, spans []span) {
	self := selfTimes(spans)
	rootTotal := totals(spans)[root]
	if rootTotal <= 0 {
		return
	}
	type row struct {
		name string
		s    float64
	}
	var rows []row
	for n, s := range self {
		rows = append(rows, row{n, s})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].s != rows[b].s {
			return rows[a].s > rows[b].s
		}
		return rows[a].name < rows[b].name
	})
	fmt.Fprintf(w, "# self time by layer (%s, %d spans, %s total %.4f s):\n", workload, len(spans), root, rootTotal)
	largest := ""
	for _, r := range rows {
		label := r.name
		if r.name == root {
			label += " (residual)"
		} else if largest == "" {
			largest = r.name
		}
		fmt.Fprintf(w, "#   %-22s %9.4f s %6.1f %%\n", label, r.s, 100*r.s/rootTotal)
	}
	fmt.Fprintf(w, "# largest share (%s): %s; residual %.1f %%\n", workload, largest, 100*self[root]/rootTotal)
}
