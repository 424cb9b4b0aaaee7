package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := r.reserve()
	r.add(root, "job", "http.post", "POST", at(10), at(30))
	r.add(root, "job", "http.events", "GET events", at(20), at(50)) // overlaps the POST by 10 ms
	r.add(root, "job", "http.curve", "GET curve", at(90), at(120))  // runs 20 ms past the parent
	r.finish(root, 0, "job", "client.job", "job", at(0), at(100))

	rows := make(map[string]layerTime)
	for _, row := range selfTimes(r.spans) {
		rows[row.Layer] = row
	}
	// Children cover 10..50 and 90..100 of the parent's 0..100.
	if got := rows["client.job"].SelfS; math.Abs(got-0.050) > 1e-12 {
		t.Errorf("parent self time %v s, want 0.050", got)
	}
	if got := rows["client.job"].TotalS; math.Abs(got-0.100) > 1e-12 {
		t.Errorf("parent total %v s, want 0.100", got)
	}
	if got := rows["http.events"].SelfS; math.Abs(got-0.030) > 1e-12 {
		t.Errorf("leaf self time %v s, want its whole 0.030", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	if id := r.add(0, "t", "l", "n", time.Now(), time.Now()); id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
	id := r.reserve()
	r.finish(id, 0, "t", "l", "n", time.Now(), time.Now())
	if r.len() != 0 {
		t.Error("nil recorder holds spans")
	}
}
