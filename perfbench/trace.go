package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// A span is one timed call at a layer boundary. Spans of one operation
// share Op. A span either encloses its children in time (a nested call,
// such as dbpack.Open inside a one-shot search) or stands for work its
// children replay afterwards one layer down (the HTTP round trip, then the
// same batch through the shard cluster, then single-node): a replay
// child runs after its parent has ended.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an operation's root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// Not safe for concurrent use: the traced phase runs one operation at a
// time so replays never contend with the call they replay.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(op, parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.dur())
}

// do runs f inside a span and returns its duration.
func (t *tracer) do(op, parent int, name string, f func() error) (time.Duration, error) {
	id := t.begin(op, parent, name)
	err := f()
	return t.end(id), err
}

// selfTimes returns each span's self time: its duration minus the time
// its children cover. A nested child covers its own interval clipped to
// the parent's; replay children (those outside the parent's interval)
// are laid end to end from the parent's start, each covering as much of
// the parent as its own duration — the share of the parent's time the
// layer below accounts for. Overlapping cover is counted once.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, p := range spans {
		var iv [][2]int64
		cursor := p.Start
		for _, c := range kids[p.ID] {
			lo, hi := c.Start, c.End
			if lo < p.Start || hi > p.End {
				if lo >= p.End || hi <= p.Start {
					lo, hi = cursor, cursor+c.dur()
					cursor = hi
				}
			}
			lo, hi = max(lo, p.Start), min(hi, p.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[p.ID] = p.dur() - union(iv)
	}
	return out
}

// union is the total length of a set of intervals.
func union(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	for _, x := range iv {
		switch {
		case first || x[0] >= end:
			total += x[1] - x[0]
			end = x[1]
			first = false
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// spanSummary is the per-name aggregate printed by a traced run.
type spanSummary struct {
	Name     string  `json:"name"`
	Count    int     `json:"count"`
	MedianMS float64 `json:"median_ms"`
	SelfMS   float64 `json:"median_self_ms"`
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e6)
	}
	names := make([]string, 0, len(durs))
	for n := range durs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]spanSummary, 0, len(names))
	for _, n := range names {
		out = append(out, spanSummary{Name: n, Count: len(durs[n]), MedianMS: median(durs[n]), SelfMS: median(selfs[n])})
	}
	return out
}

func printSummary(w io.Writer, sums []spanSummary) {
	fmt.Fprintf(w, "# spans: %-28s %6s %12s %12s\n", "name", "count", "median_ms", "self_ms")
	for _, s := range sums {
		fmt.Fprintf(w, "# spans: %-28s %6d %12.3f %12.3f\n", s.Name, s.Count, s.MedianMS, s.SelfMS)
	}
}

// writeSpans writes every span plus the summary as one JSON document.
func writeSpans(path string, spans []span, sums []spanSummary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{sums, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
