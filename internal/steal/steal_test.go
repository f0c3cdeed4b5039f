package steal

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"phylo/internal/schedule"
)

// randomSpans mirrors the schedule package's generator: consecutive spans of
// mixed DNA-like and protein-like per-pattern costs.
func randomSpans(seed int64) []schedule.Span {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(6)
	spans := make([]schedule.Span, n)
	off := 0
	for i := range spans {
		length := rng.Intn(500)
		cost := 160.0
		if rng.Intn(2) == 1 {
			cost = 3360.0
		}
		spans[i] = schedule.Span{Lo: off, Hi: off + length, Cost: cost}
		off += length
	}
	return spans
}

// walk returns the slot ids one traversal step runs, worker after worker:
// each worker's shares in order, skipping shares of spans the mask turns
// off — the walk internal/core's drain makes. A nil mask is all-active.
func walk(l *Layout, active []bool) [][]int {
	ids := make([][]int, l.Threads())
	for w := range ids {
		for _, sh := range l.Shares(w) {
			if active != nil && !active[sh.Span] {
				continue
			}
			ids[w] = append(ids[w], sh.Slot)
		}
	}
	return ids
}

// verifyExactCover checks that one step's walk runs every pattern of every
// active span exactly once and no slot twice.
func verifyExactCover(t *testing.T, l *Layout, spans []schedule.Span, active []bool, ids [][]int) {
	t.Helper()
	total := 0
	if len(spans) > 0 {
		total = spans[len(spans)-1].Hi
	}
	seen := make([]int, total)
	claimed := make([]bool, len(l.Slots()))
	for _, own := range ids {
		for _, id := range own {
			if claimed[id] {
				t.Fatalf("slot %d walked twice", id)
			}
			claimed[id] = true
			sh := l.Slots()[id]
			if active != nil && !active[sh.Span] {
				t.Fatalf("slot %d of inactive span %d walked", id, sh.Span)
			}
			for i := sh.Lo; i < sh.Hi; i++ {
				seen[i]++
			}
		}
	}
	for sp, span := range spans {
		want := 1
		if active != nil && !active[sp] {
			want = 0
		}
		for i := span.Lo; i < span.Hi; i++ {
			if seen[i] != want {
				t.Fatalf("pattern %d (span %d) walked %d times, want %d", i, sp, seen[i], want)
			}
		}
	}
}

// TestWalkNeverDropsOrDuplicatesPatterns is the layout's counterpart of
// schedule's TestRebalanceNeverDropsOrDuplicatesPatterns: for every strategy
// and worker count, one step's walk runs every pattern of every span exactly
// once, and the slots list every share once, at its id, in (span, owner)
// order — the engine's reduction order.
func TestWalkNeverDropsOrDuplicatesPatterns(t *testing.T) {
	for _, strat := range []schedule.Strategy{schedule.Cyclic, schedule.Block, schedule.Weighted} {
		f := func(seedRaw uint16, tRaw uint8) bool {
			spans := randomSpans(int64(seedRaw) + 999)
			threads := 1 + int(tRaw%8)
			s, err := schedule.New(strat, threads, spans)
			if err != nil {
				return false
			}
			l := NewLayout(s, 0)
			verifyExactCover(t, l, spans, nil, walk(l, nil))
			prev := schedule.Run{}
			for id, sh := range l.Slots() {
				if sh.Slot != id || sh.Len() == 0 || id > 0 && sh.Lo != prev.Hi {
					t.Errorf("%v: slot %d is %+v after %+v, want the next non-empty run at its id", strat, id, sh, prev)
				}
				prev = sh.Run
			}
			return !t.Failed()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%v: %v", strat, err)
		}
	}
}

// TestActiveMaskFiltersSpans checks that a span mask filters whole shares:
// no share straddles two spans, so skipping the shares of masked-off spans
// leaves exact coverage of the active subset.
func TestActiveMaskFiltersSpans(t *testing.T) {
	spans := []schedule.Span{{Lo: 0, Hi: 300, Cost: 160}, {Lo: 300, Hi: 700, Cost: 3360}, {Lo: 700, Hi: 900, Cost: 160}}
	s, err := schedule.New(schedule.Weighted, 4, spans)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLayout(s, 0)
	for id, sh := range l.Slots() {
		sp := spans[sh.Span]
		if sh.Lo < sp.Lo || sh.Hi > sp.Hi {
			t.Fatalf("slot %d [%d,%d) straddles span %d [%d,%d)", id, sh.Lo, sh.Hi, sh.Span, sp.Lo, sp.Hi)
		}
	}
	for _, active := range [][]bool{{true, false, true}, {false, true, false}, {false, false, false}} {
		verifyExactCover(t, l, spans, active, walk(l, active))
	}
}

// TestSerialModeHandsOutOwnChunksOnly checks the owner-only contract every
// executor, serial or concurrent, meets: a worker's list holds exactly its
// schedule run of every span it has patterns of, in span order with
// ascending slot ids, and the layout prices its two lists of share records.
// (The name predates the shares' chunks' removal.)
func TestSerialModeHandsOutOwnChunksOnly(t *testing.T) {
	spans := randomSpans(7)
	for _, strat := range []schedule.Strategy{schedule.Cyclic, schedule.Block, schedule.Weighted} {
		s, err := schedule.New(strat, 4, spans)
		if err != nil {
			t.Fatal(err)
		}
		l := NewLayout(s, 0)
		shares := 0
		for w := 0; w < s.Threads(); w++ {
			own, next := l.Shares(w), 0
			for sp := 0; sp < s.NumSpans(); sp++ {
				r := s.SpanRun(w, sp)
				if r.Len() == 0 {
					continue
				}
				if next == len(own) || own[next].Span != sp || own[next].Run != r {
					t.Fatalf("%v: worker %d's share %d of %d is not its schedule run %+v of span %d", strat, w, next, len(own), r, sp)
				}
				if next > 0 && own[next].Slot <= own[next-1].Slot {
					t.Fatalf("%v: worker %d slots not ascending: %d after %d", strat, w, own[next].Slot, own[next-1].Slot)
				}
				if l.Slots()[own[next].Slot] != own[next] {
					t.Fatalf("%v: worker %d share %+v is not slot %d's", strat, w, own[next], own[next].Slot)
				}
				next++
			}
			if next != len(own) {
				t.Fatalf("%v: worker %d lists %d shares, its schedule %d", strat, w, len(own), next)
			}
			shares += len(own)
		}
		if got, want := l.MemoryBytes(), 2*int64(shares)*4*8; got != want {
			t.Errorf("%v: MemoryBytes = %d, want %d", strat, got, want)
		}
	}
}

// TestSequentialLayoutsAgree: at one worker every strategy's schedule is one
// run per span, so Cyclic, Block and Weighted list the same shares.
func TestSequentialLayoutsAgree(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		spans := randomSpans(seed)
		var ref *Layout
		for _, strat := range []schedule.Strategy{schedule.Cyclic, schedule.Block, schedule.Weighted} {
			s, err := schedule.New(strat, 1, spans)
			if err != nil {
				t.Fatal(err)
			}
			l := NewLayout(s, 0)
			if ref == nil {
				ref = l
				continue
			}
			if !slices.Equal(l.Slots(), ref.Slots()) {
				t.Fatalf("seed %d: %v lists %+v, cyclic %+v", seed, strat, l.Slots(), ref.Slots())
			}
		}
	}
}
