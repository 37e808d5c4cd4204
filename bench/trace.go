package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. The layer is the
// part of Name before the first dot and is one of the repository's modules
// (datagen, jointree, core, moo, ml, ivm, data, lmfao, serve, wal) or
// "bench" for the harness's own phases. Parent is the index of the span
// that caused this one (-1 for a root) and Req groups the spans of one
// operation.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
}

// tracer keeps spans in memory until the run ends. Every latency the
// benchmark reports is taken through a timer whether or not tracing is on,
// so a traced run executes the same code as an untraced one plus the append
// in begin.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// timer is an open span. id is the span's index, usable as the parent of
// spans begun before stop, or -1 when the span is not recorded.
type timer struct {
	tr    *tracer
	id    int
	start time.Time
}

// begin opens a span and starts its clock. With record false (or tracing
// off) the clock runs but nothing is stored: a traced run leaves alternate
// operations unrecorded, so that the two halves give the tracing overhead.
func (t *tracer) begin(record bool, name string, parent, req int) timer {
	tm := timer{tr: t, id: -1, start: time.Now()}
	if record {
		tm.id = t.add(name, parent, req, tm.start, tm.start)
	}
	return tm
}

// stop closes the span and returns its duration.
func (tm timer) stop() time.Duration {
	end := time.Now()
	if tm.id >= 0 {
		tm.tr.mu.Lock()
		tm.tr.spans[tm.id].EndNS = end.Sub(tm.tr.t0).Nanoseconds()
		tm.tr.mu.Unlock()
	}
	return end.Sub(tm.start)
}

// add stores a finished span and returns its index (-1 with tracing off).
// The harness also uses it to build child spans from the durations a layer
// returns (ApplyStats scan and merge times).
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Req: req,
	})
	return len(t.spans) - 1
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the summed self time of its spans in
// milliseconds: a span's duration minus the part of it its children cover.
// Children of one span made by one goroutine do not overlap; children made
// concurrently (shard workers) may, so covered time is the union of the
// child intervals.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := make(map[string]float64)
	for id, s := range t.spans {
		iv := children[id]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, upTo := int64(0), s.StartNS
		for _, c := range iv {
			lo, hi := max(c[0], upTo), min(c[1], s.EndNS)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		out[layerOf(s.Name)] += float64(s.EndNS-s.StartNS-covered) / 1e6
	}
	return out
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	blob, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	return path, os.WriteFile(path, append(blob, '\n'), 0o644)
}
