package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the system. Spans are
// recorded by the benchmark around its own calls (HTTP requests,
// RunContext, OnRound gaps, layer probes, scrapes); spans inside the
// programs under test are not part of this benchmark. Times are
// nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Trace  string `json:"trace"`  // shared by every span of one job or run
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced end-to-end run is taken.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil recorder).
func (r *recorder) add(parent int, trace, layer, name string, start, end time.Time) int {
	id := r.reserve()
	r.finish(id, parent, trace, layer, name, start, end)
	return id
}

// reserve allocates an id for a span whose children finish before it
// does; finish fills it in.
func (r *recorder) reserve() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{})
	return len(r.spans)
}

func (r *recorder) finish(id, parent int, trace, layer, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1] = span{
		ID: id, Parent: parent, Trace: trace, Name: name, Layer: layer,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	}
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Layer   string  `json:"layer"`
	Spans   int     `json:"spans"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	SelfPct float64 `json:"self_share"`
}

// selfTimes charges every span's duration, minus the part of it its
// child spans cover, to the span's layer.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerTime)
	var all float64
	for _, s := range spans {
		if s.ID == 0 || s.End < s.Start {
			continue
		}
		dur := float64(s.End - s.Start)
		self := dur - float64(covered(s, children[s.ID]))
		row := rows[s.Layer]
		if row == nil {
			row = &layerTime{Layer: s.Layer}
			rows[s.Layer] = row
		}
		row.Spans++
		row.TotalS += dur / 1e9
		row.SelfS += self / 1e9
		all += self / 1e9
	}
	out := make([]layerTime, 0, len(rows))
	for _, row := range rows {
		if all > 0 {
			row.SelfPct = row.SelfS / all
		}
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cursor := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cursor), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			cursor = hi
		}
	}
	return total
}

// writeTrace dumps the spans as one JSON document.
func (r *recorder) writeTrace(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
