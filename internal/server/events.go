package server

import (
	"sync"

	"phylo"
	"phylo/internal/obs"
)

// Progress streaming. Analyses emit one ProgressEvent per optimizer/search
// round on the analysing goroutine, between parallel regions — the publisher
// must never block there, or a slow SSE client would stall the kernel. The
// hub therefore buffers with hard bounds at both levels and sheds load by
// dropping the OLDEST events first: a progress stream is a telemetry stream,
// where the newest state is worth strictly more than a complete history.

// Event is one numbered progress event. Seq is the 1-based position in the
// analysis's full event history; gaps in a subscriber's sequence are events
// shed by backpressure (visible as non-consecutive seq values, and counted in
// the job's dropped_events).
type Event struct {
	Seq int64               `json:"seq"`
	Ev  phylo.ProgressEvent `json:"event"`
}

// shedCounters are the daemon's plk_sse_dropped_events_total series, one per
// level at which a hub sheds: "ring" (history aged out of the replay buffer)
// and "subscriber" (a slow SSE client's full channel). Every hub of a server
// counts into the same two.
type shedCounters struct{ ring, subscriber *obs.Counter }

// newShedCounters registers both series on reg, so a scrape shows both, at
// zero, before any hub has shed.
func newShedCounters(reg *obs.Registry) shedCounters {
	const name = "plk_sse_dropped_events_total"
	const help = "Progress events shed by bounded event hubs, by level: ring history aging or slow-subscriber backpressure."
	return shedCounters{
		ring:       reg.Counter(name, help, obs.Label{Key: "level", Value: "ring"}),
		subscriber: reg.Counter(name, help, obs.Label{Key: "level", Value: "subscriber"}),
	}
}

// eventHub is the bounded broadcast buffer for one analysis job: a ring of
// the most recent history (replayed to late subscribers) plus per-subscriber
// bounded channels with drop-oldest overflow. Publish is called from the
// analysis goroutine and never blocks.
type eventHub struct {
	mu      sync.Mutex
	ring    []Event // most recent events, oldest first; len <= cap(ring)
	cap     int
	seq     int64
	dropped int64 // events this hub has shed at either level; never decreases
	shed    shedCounters
	subs    map[chan Event]struct{} // attached subscriber channels
	closed  bool
}

// newEventHub creates a hub retaining up to capacity events of history;
// subscriber channels use the same bound. capacity < 1 selects 1.
func newEventHub(capacity int, shed shedCounters) *eventHub {
	if capacity < 1 {
		capacity = 1
	}
	return &eventHub{ring: make([]Event, 0, capacity), cap: capacity, shed: shed, subs: make(map[chan Event]struct{})}
}

// Publish appends one event, shedding the oldest history and the oldest
// queued event of any full subscriber. Never blocks; no-op after Close.
func (h *eventHub) Publish(ev phylo.ProgressEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	e := Event{Seq: h.seq, Ev: ev}
	if len(h.ring) == h.cap {
		copy(h.ring, h.ring[1:])
		h.ring = h.ring[:h.cap-1]
		h.dropped++
		h.shed.ring.Inc()
	}
	h.ring = append(h.ring, e)
	for ch := range h.subs {
		for {
			select {
			case ch <- e:
			default:
				// Full: drop the subscriber's oldest and retry. The drain
				// cannot livelock — only this goroutine sends, so one
				// receive frees a slot that no competing sender can take.
				select {
				case <-ch:
					h.dropped++
					h.shed.subscriber.Inc()
					continue
				default:
					// Reader drained it concurrently; retry the send.
					continue
				}
			}
			break
		}
	}
}

// Subscribe attaches a new stream, pre-loading the retained history. The
// returned cancel detaches (idempotent); the channel closes when the hub
// closes after the analysis finishes.
func (h *eventHub) Subscribe() (<-chan Event, func()) {
	h.mu.Lock()
	ch := make(chan Event, h.cap+len(h.ring))
	for _, e := range h.ring {
		ch <- e
	}
	if h.closed {
		close(ch)
		h.mu.Unlock()
		return ch, func() {}
	}
	h.subs[ch] = struct{}{}
	h.mu.Unlock()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			if _, ok := h.subs[ch]; ok {
				delete(h.subs, ch)
				close(ch)
			}
			h.mu.Unlock()
		})
	}
	return ch, cancel
}

// Close ends the stream: subscriber channels close once drained of their
// queued events, and later Publishes are dropped.
func (h *eventHub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
		delete(h.subs, ch)
	}
}

// Dropped totals the events this hub has shed, at the ring and at every
// subscriber it ever had: a detached or closed stream keeps its count.
func (h *eventHub) Dropped() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}
