package server

import (
	"errors"
	"sync"
	"testing"
	"time"

	"phylo/internal/obs"
)

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup(obs.NewRegistry())
	const n = 8
	gate := make(chan struct{})
	var runs int
	var mu sync.Mutex

	fn := func() (any, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		<-gate
		return "result", nil
	}

	var wg sync.WaitGroup
	results := make([]any, n)
	coalesced := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], coalesced[i], _ = g.Do("k", fn)
		}(i)
	}
	// Deterministic: wait until all n-1 duplicates are parked, then release.
	deadline := time.Now().Add(5 * time.Second)
	for g.Waiting("k") < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters joined", g.Waiting("k"))
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if runs != 1 {
		t.Fatalf("fn ran %d times, want 1", runs)
	}
	nCoal := 0
	for i := range results {
		if results[i] != "result" {
			t.Fatalf("result[%d] = %v", i, results[i])
		}
		if coalesced[i] {
			nCoal++
		}
	}
	if nCoal != n-1 {
		t.Fatalf("coalesced = %d, want %d", nCoal, n-1)
	}
	if e, j := g.executed.Value(), g.joined.Value(); e != 1 || j != n-1 {
		t.Fatalf("executed, joined = %v, %v; want 1, %d", e, j, n-1)
	}
}

func TestFlightGroupSequentialRunsFresh(t *testing.T) {
	g := newFlightGroup(obs.NewRegistry())
	runs := 0
	fn := func() (any, error) { runs++; return runs, nil }
	v1, co1, _ := g.Do("k", fn)
	v2, co2, _ := g.Do("k", fn)
	if co1 || co2 {
		t.Fatal("sequential calls must not coalesce")
	}
	if v1 != 1 || v2 != 2 {
		t.Fatalf("got %v, %v", v1, v2)
	}
}

func TestFlightGroupErrorSharedThenForgotten(t *testing.T) {
	g := newFlightGroup(obs.NewRegistry())
	boom := errors.New("boom")
	gate := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = g.Do("k", func() (any, error) { <-gate; return nil, boom })
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Waiting("k") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("errs[%d] = %v", i, err)
		}
	}
	// The key is forgotten: a fresh call runs and can succeed.
	if v, co, err := g.Do("k", func() (any, error) { return 42, nil }); v != 42 || co || err != nil {
		t.Fatalf("retry = (%v, %v, %v)", v, co, err)
	}
	if g.Waiting("k") != 0 {
		t.Fatal("stale flight retained")
	}
}

func TestFlightGroupDistinctKeysIndependent(t *testing.T) {
	g := newFlightGroup(obs.NewRegistry())
	a, coA, _ := g.Do("a", func() (any, error) { return "a", nil })
	b, coB, _ := g.Do("b", func() (any, error) { return "b", nil })
	if coA || coB || a != "a" || b != "b" {
		t.Fatalf("got (%v,%v) (%v,%v)", a, coA, b, coB)
	}
	if e, j := g.executed.Value(), g.joined.Value(); e != 2 || j != 0 {
		t.Fatalf("executed, joined = %v, %v; want 2, 0", e, j)
	}
}

// TestFlightGroupPanicReleasesWaiters pins the failure containment of Do: a
// computation that panics must not strand the duplicates parked on it (each
// holds an admission slot) nor leave the key joined to a dead flight.
func TestFlightGroupPanicReleasesWaiters(t *testing.T) {
	g := newFlightGroup(obs.NewRegistry())
	gate := make(chan struct{})
	primaryPanic := make(chan any, 1)
	started := make(chan struct{})
	go func() {
		defer func() { primaryPanic <- recover() }()
		g.Do("k", func() (any, error) { close(started); <-gate; panic("kernel bug") })
	}()
	<-started
	dupErr := make(chan error, 1)
	go func() {
		_, coalesced, err := g.Do("k", func() (any, error) { return "fresh", nil })
		if !coalesced {
			err = errors.New("duplicate ran its own computation")
		}
		dupErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.Waiting("k") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("duplicate never joined")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	if v := <-primaryPanic; v != "kernel bug" {
		t.Fatalf("primary's panic did not propagate: recovered %v", v)
	}
	select {
	case err := <-dupErr:
		if !errors.Is(err, errFlightPanicked) {
			t.Fatalf("duplicate got %v, want errFlightPanicked", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate still blocked on the dead flight")
	}
	if n := g.Waiting("k"); n != 0 {
		t.Fatalf("Waiting = %d after the flight died, want 0", n)
	}
	if v, co, err := g.Do("k", func() (any, error) { return "fresh", nil }); v != "fresh" || co || err != nil {
		t.Fatalf("next Do on the key = (%v, %v, %v), want a fresh run", v, co, err)
	}
}
