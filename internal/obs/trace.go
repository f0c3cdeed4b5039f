package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Arg is one numeric span annotation (ops, steals, patterns, ...). Chrome's
// trace viewer renders args in the span detail pane.
type Arg struct {
	Key   string
	Value float64
}

// traceEvent is one buffered event. Complete ("X") events carry dur >= 0;
// instant ("i") events carry dur < 0.
type traceEvent struct {
	name string
	cat  string
	tid  int
	ts   time.Time
	dur  time.Duration // < 0 for instant events
	args []Arg
}

// Tracer records region/phase/analysis lifecycle spans into a bounded
// in-memory buffer and serializes them as Chrome trace-event JSON
// (chrome://tracing or Perfetto loadable). Spans are recorded at region
// boundaries — a few per parallel region, never per pattern — so the
// allocation cost of buffering is irrelevant to kernel throughput. When the
// buffer is full further events are dropped and counted; Dropped reports the
// loss. All methods are safe for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	events  []traceEvent
	cap     int
	dropped int64
}

// DefaultTraceCapacity is the event-buffer bound used when NewTracer is given
// a non-positive capacity. At one span per worker per region this covers
// hundreds of thousands of regions — far past any single analysis.
const DefaultTraceCapacity = 1 << 16

// NewTracer creates a tracer buffering at most capacity events; capacity <= 0
// uses DefaultTraceCapacity.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{cap: capacity}
}

// record appends one event, or counts a drop when the buffer is full.
func (t *Tracer) record(ev traceEvent) {
	t.mu.Lock()
	if len(t.events) >= t.cap {
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Span records a complete event: a named span of duration d starting at
// start, on virtual thread tid (worker index; -1 for process-level spans).
func (t *Tracer) Span(name, cat string, tid int, start time.Time, d time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	t.record(traceEvent{name: name, cat: cat, tid: tid, ts: start, dur: d, args: args})
}

// Instant records a zero-duration marker (a lifecycle edge) at the current
// time.
func (t *Tracer) Instant(name, cat string, tid int, args ...Arg) {
	if t == nil {
		return
	}
	t.record(traceEvent{name: name, cat: cat, tid: tid, ts: time.Now(), dur: -1, args: args})
}

// Len reports the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped reports how many events were discarded because the buffer was full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// jsonEscape escapes a string for embedding in a JSON string literal.
func jsonEscape(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			if r < 0x20 {
				fmt.Fprintf(&b, `\u%04x`, r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	return b.String()
}

// WriteJSON serializes the buffered events as a Chrome trace-event file:
// {"traceEvents":[...]} with "X" complete events (ts/dur in microseconds,
// relative to the earliest buffered timestamp), "i" instant events, and one
// "M" thread_name metadata event per worker tid so timelines are labeled
// "worker N". The buffer is left intact; WriteJSON may be called repeatedly.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	events := append([]traceEvent(nil), t.events...)
	t.mu.Unlock()

	var base time.Time
	tids := map[int]bool{}
	for i, ev := range events {
		if i == 0 || ev.ts.Before(base) {
			base = ev.ts
		}
		tids[ev.tid] = true
	}
	var b strings.Builder
	b.WriteString(`{"traceEvents":[`)
	first := true
	sortedTids := make([]int, 0, len(tids))
	for tid := range tids {
		sortedTids = append(sortedTids, tid)
	}
	sort.Ints(sortedTids)
	for _, tid := range sortedTids {
		name := fmt.Sprintf("worker %d", tid)
		if tid < 0 {
			name = "process"
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"%s"}}`, tid, jsonEscape(name))
	}
	for _, ev := range events {
		if !first {
			b.WriteByte(',')
		}
		first = false
		ts := float64(ev.ts.Sub(base)) / float64(time.Microsecond)
		if ev.dur < 0 {
			fmt.Fprintf(&b, `{"name":"%s","cat":"%s","ph":"i","s":"t","pid":1,"tid":%d,"ts":%.3f`,
				jsonEscape(ev.name), jsonEscape(ev.cat), ev.tid, ts)
		} else {
			fmt.Fprintf(&b, `{"name":"%s","cat":"%s","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f`,
				jsonEscape(ev.name), jsonEscape(ev.cat), ev.tid, ts,
				float64(ev.dur)/float64(time.Microsecond))
		}
		if len(ev.args) > 0 {
			b.WriteString(`,"args":{`)
			for i, a := range ev.args {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `"%s":%s`, jsonEscape(a.Key), formatValue(a.Value))
			}
			b.WriteByte('}')
		}
		b.WriteByte('}')
	}
	b.WriteString(`]}`)
	_, err := io.WriteString(w, b.String())
	return err
}
