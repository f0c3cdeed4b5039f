package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	r := newRecorder(time.Now())
	// Hand-built spans: a 10 ms facade call with 3 ms and 4 ms children.
	ms := time.Millisecond
	r.spans = []span{
		{ID: 0, Parent: -1, Name: "facade", Start: 0, End: 10 * ms},
		{ID: 1, Parent: 0, Name: "layer", Start: 1 * ms, End: 4 * ms},
		{ID: 2, Parent: 0, Name: "layer", Start: 5 * ms, End: 9 * ms},
		{ID: 3, Parent: 2, Name: "leaf", Start: 6 * ms, End: 7 * ms},
		{ID: 4, Parent: 0, Name: "open", Start: 9 * ms, End: -1}, // never closed: ignored
	}
	self := r.selfSeconds()
	for name, want := range map[string]float64{"facade": 0.003, "layer": 0.006, "leaf": 0.001} {
		if math.Abs(self[name]-want) > 1e-12 {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
	if _, ok := self["open"]; ok {
		t.Error("an open span has no self time")
	}
	if d := r.durations("layer"); len(d) != 2 || math.Abs(d[0]-0.003) > 1e-12 {
		t.Errorf("durations(layer) = %v", d)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0, 0)
	if id != -1 || r.end(id) != 0 || len(r.selfSeconds()) != 0 {
		t.Fatal("nil recorder must be a no-op")
	}
}

func TestChromeTraceMergesRegionEvents(t *testing.T) {
	r := newRecorder(time.Now())
	root := r.begin("rep", -1, 7, 0)
	r.end(r.begin("phylo.OptimizeModel", root, 7, 0))
	r.end(root)
	regions := []byte(`{"traceEvents":[{"name":"newview","ph":"X","pid":1,"tid":0,"ts":1,"dur":2}]}`)
	var buf bytes.Buffer
	if err := r.writeChrome(&buf, regions); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Pid  int            `json:"pid"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[0].Name != "newview" {
		t.Fatalf("merged events = %+v", doc.TraceEvents)
	}
	child := doc.TraceEvents[2]
	if child.Pid != benchPid || child.Args["parent"] != root || child.Args["op"] != 7 {
		t.Fatalf("child event = %+v", child)
	}
}
