package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the id
// of the span that caused it (-1 for a root) and Op is the rep or request
// the span belongs to, so the spans of one operation share an identifier.
type span struct {
	ID, Parent int
	Name       string
	Op         int
	Lane       int // trace row: 0 for the driving goroutine, 1+c for client c
	Start, End time.Duration
}

// recorder is the benchmark-owned span store of the traced pass. Spans stay
// in memory until the run ends. A nil recorder records nothing, which is how
// the untraced pass runs the same code without tracing.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// begin opens a span and returns its id (-1 from a nil recorder).
func (r *recorder) begin(name string, parent, op, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Op: op, Lane: lane, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes a span and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	if r == nil || id < 0 {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return (now - r.spans[id].Start).Seconds()
}

// selfSeconds sums, by span name, each closed span's duration minus the
// durations of its direct children: the time spent in that layer itself.
func (r *recorder) selfSeconds() map[string]float64 {
	out := map[string]float64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 && s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range r.spans {
		if s.End >= 0 {
			out[s.Name] += (s.End - s.Start - children[s.ID]).Seconds()
		}
	}
	return out
}

// lane returns the trace row of a span (0 for an unknown id).
func (r *recorder) lane(id int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || id >= len(r.spans) {
		return 0
	}
	return r.spans[id].Lane
}

// chromeEvent is one Chrome trace-event ("X" complete event).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]int `json:"args"`
}

// benchPid separates the benchmark's own rows from the program's worker rows
// (pid 1 in the obs tracer's output) in the trace viewer.
const benchPid = 2

// writeChrome writes the benchmark's spans as Chrome trace JSON, merged with
// the region spans the program's own tracer exported (regionTrace, the
// output of Tracer.WriteJSON, may be nil). Both share one time base because
// the run records an instant into the program's tracer at the recorder's
// epoch, and that tracer dates its events from its earliest one.
func (r *recorder) writeChrome(w io.Writer, regionTrace []byte) error {
	var events []json.RawMessage
	if len(regionTrace) > 0 {
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(regionTrace, &doc); err != nil {
			return fmt.Errorf("decoding region trace: %w", err)
		}
		events = doc.TraceEvents
	}
	r.mu.Lock()
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		ev, err := json.Marshal(chromeEvent{
			Name: s.Name, Cat: "bench", Ph: "X", Pid: benchPid, Tid: s.Lane,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
		if err != nil {
			r.mu.Unlock()
			return err
		}
		events = append(events, ev)
	}
	r.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

// durations lists the closed spans of one name, in seconds.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}
