package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"

	"phylo"
)

func ev(round int) phylo.ProgressEvent {
	return phylo.ProgressEvent{Phase: phylo.PhaseModelOpt, Round: round, LnL: -float64(round)}
}

// TestProgressFrameWireFormat pins the JSON of an SSE `progress` frame: the
// `event` object carries what the round did and nothing else, so the next
// change to the wire format is a deliberate one.
func TestProgressFrameWireFormat(t *testing.T) {
	_, hs := testServer(t, Config{Threads: 2})
	id := submit(t, hs.URL, tinyPhylip(t, 8, 128, 1))
	var st analysisStatus
	if code := doJSON(t, "POST", hs.URL+"/v1/analyses", analysisRequest{Dataset: id, Seed: 3}, &st, nil); code != http.StatusAccepted {
		t.Fatalf("start: HTTP %d", code)
	}
	resp, err := http.Get(hs.URL + "/v1/analyses/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && sc.Text() != "event: progress" {
	}
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "data: ") {
		t.Fatal("no progress frame with a data line")
	}
	var frame struct {
		Event map[string]json.RawMessage `json:"event"`
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(sc.Text(), "data: ")), &frame); err != nil {
		t.Fatalf("progress frame: %v (%s)", err, sc.Text())
	}
	keys := make([]string, 0, len(frame.Event))
	for k := range frame.Event {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := []string{"LnL", "MovesApplied", "MovesTried", "Phase", "Regions", "Round"}
	if !slices.Equal(keys, want) {
		t.Errorf("progress event keys %v, want exactly %v", keys, want)
	}
}

func TestEventHubReplayAndOrder(t *testing.T) {
	h := newEventHub(8)
	for i := 1; i <= 3; i++ {
		h.Publish(ev(i))
	}
	ch, cancel := h.Subscribe()
	defer cancel()
	// History replays in order with 1-based seq.
	for i := 1; i <= 3; i++ {
		e := <-ch
		if e.Seq != int64(i) || e.Ev.Round != i {
			t.Fatalf("replay %d: %+v", i, e)
		}
	}
	// Live events follow.
	h.Publish(ev(4))
	if e := <-ch; e.Seq != 4 || e.Ev.Round != 4 {
		t.Fatalf("live: %+v", e)
	}
	h.Close()
	if _, ok := <-ch; ok {
		t.Fatal("channel should close with the hub")
	}
}

// TestEventHubDropOldest overflows both bounds and checks the newest events
// survive: the publisher must never block, and load sheds from the old end.
func TestEventHubDropOldest(t *testing.T) {
	h := newEventHub(4)
	ch, cancel := h.Subscribe()
	defer cancel()
	// 20 publishes into a capacity-4 subscriber channel nobody is reading:
	// must not block, and the queued events must be the newest 4... plus the
	// replayed history already taken (none here).
	for i := 1; i <= 20; i++ {
		h.Publish(ev(i))
	}
	if h.Dropped() == 0 {
		t.Fatal("expected drops")
	}
	// Drain what's queued: the LAST event must be present; seq strictly
	// increasing with gaps where drops happened.
	var got []int64
	h.Close()
	for e := range ch {
		got = append(got, e.Seq)
	}
	if len(got) == 0 {
		t.Fatal("no events survived")
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("seq not increasing: %v", got)
		}
	}
	if got[len(got)-1] != 20 {
		t.Fatalf("newest event shed: last seq = %d, want 20", got[len(got)-1])
	}
}

func TestEventHubLateSubscriberSeesRecentHistory(t *testing.T) {
	h := newEventHub(4)
	for i := 1; i <= 10; i++ {
		h.Publish(ev(i))
	}
	ch, cancel := h.Subscribe()
	defer cancel()
	// The ring retains the newest 4: seq 7..10.
	for want := int64(7); want <= 10; want++ {
		e := <-ch
		if e.Seq != want {
			t.Fatalf("history seq = %d, want %d", e.Seq, want)
		}
	}
	if h.Dropped() != 6 {
		t.Fatalf("ring drops = %d, want 6", h.Dropped())
	}
}

func TestEventHubSubscribeAfterClose(t *testing.T) {
	h := newEventHub(4)
	h.Publish(ev(1))
	h.Close()
	ch, cancel := h.Subscribe()
	defer cancel()
	e, ok := <-ch
	if !ok || e.Seq != 1 {
		t.Fatalf("post-close history: %+v ok=%v", e, ok)
	}
	if _, ok := <-ch; ok {
		t.Fatal("channel should be closed")
	}
	h.Publish(ev(2)) // dropped, no panic
	cancel()         // idempotent, no panic on closed
}
