package steal

import (
	"math/rand"
	"reflect"
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

// walk returns the chunk ids one traversal step runs, worker after worker:
// the chunks of each worker's shares in order, skipping shares of spans the
// mask turns off — the walk internal/core's drain makes. A nil mask is
// all-active.
func walk(l *Layout, active []bool) [][]int {
	ids := make([][]int, l.Threads())
	for w := range ids {
		for _, sh := range l.Shares(w) {
			if active != nil && !active[sh.Span] {
				continue
			}
			for id := sh.First; id < sh.End; id++ {
				ids[w] = append(ids[w], id)
			}
		}
	}
	return ids
}

// verifyExactCover checks that one step's walk runs every pattern of every
// active span exactly once and no chunk twice.
func verifyExactCover(t *testing.T, l *Layout, spans []schedule.Span, active []bool, ids [][]int) {
	t.Helper()
	total := 0
	if len(spans) > 0 {
		total = spans[len(spans)-1].Hi
	}
	seen := make([]int, total)
	claimed := make([]bool, l.NumChunks())
	for _, own := range ids {
		for _, id := range own {
			if claimed[id] {
				t.Fatalf("chunk %d walked twice", id)
			}
			claimed[id] = true
			c := l.Chunk(id)
			if active != nil && !active[c.Span] {
				t.Fatalf("chunk %d of inactive span %d walked", id, c.Span)
			}
			for i := c.Lo; i < c.Hi; i++ {
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

// TestStealingNeverDropsOrDuplicatesPatterns is the layout's counterpart of
// schedule's TestRebalanceNeverDropsOrDuplicatesPatterns. It once ran
// concurrent thieves; with stealing gone the invariant that survives is the
// owner lists' exact cover: for every strategy, worker count and chunk size,
// one step's walk runs every pattern of every span exactly once.
func TestStealingNeverDropsOrDuplicatesPatterns(t *testing.T) {
	for _, strat := range []schedule.Strategy{schedule.Cyclic, schedule.Block, schedule.Weighted} {
		f := func(seedRaw uint16, tRaw, mcRaw uint8) bool {
			spans := randomSpans(int64(seedRaw) + 999)
			threads := 1 + int(tRaw%8)
			minChunk := 1 + int(mcRaw%80)
			s, err := schedule.New(strat, threads, spans)
			if err != nil {
				return false
			}
			l := NewLayout(s, minChunk)
			verifyExactCover(t, l, spans, nil, walk(l, nil))
			return !t.Failed()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%v: %v", strat, err)
		}
	}
}

// TestActiveMaskFiltersSpans checks that a span mask filters whole chunks:
// no chunk straddles two spans, so skipping the chunks of masked-off spans
// leaves exact coverage of the active subset.
func TestActiveMaskFiltersSpans(t *testing.T) {
	spans := []schedule.Span{{Lo: 0, Hi: 300, Cost: 160}, {Lo: 300, Hi: 700, Cost: 3360}, {Lo: 700, Hi: 900, Cost: 160}}
	s, err := schedule.New(schedule.Weighted, 4, spans)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLayout(s, 32)
	for id := 0; id < l.NumChunks(); id++ {
		c := l.Chunk(id)
		sp := spans[c.Span]
		if c.Len() > 0 && (c.Lo < sp.Lo || c.Hi > sp.Hi) {
			t.Fatalf("chunk %d [%d,%d) straddles span %d [%d,%d)", id, c.Lo, c.Hi, c.Span, sp.Lo, sp.Hi)
		}
	}
	for _, active := range [][]bool{{true, false, true}, {false, true, false}, {false, false, false}} {
		verifyExactCover(t, l, spans, active, walk(l, active))
	}
}

// TestSerialModeHandsOutOwnChunksOnly checks the owner-only contract every
// executor, serial or concurrent, now meets: a worker's chunk list holds
// only patterns the schedule gives it, in ascending id order, and its chunks
// cover exactly its scheduled share of every span.
func TestSerialModeHandsOutOwnChunksOnly(t *testing.T) {
	spans := randomSpans(7)
	for _, strat := range []schedule.Strategy{schedule.Cyclic, schedule.Block, schedule.Weighted} {
		s, err := schedule.New(strat, 4, spans)
		if err != nil {
			t.Fatal(err)
		}
		l := NewLayout(s, 16)
		owner := make([]int, s.Total())
		for w := 0; w < s.Threads(); w++ {
			for sp := 0; sp < s.NumSpans(); sp++ {
				r := s.SpanRun(w, sp)
				for i := r.Lo; i < r.Hi; i++ {
					owner[i] = w
				}
			}
		}
		for w, own := range walk(l, nil) {
			prev := -1
			share := make([]int, s.NumSpans())
			for _, id := range own {
				if id <= prev {
					t.Fatalf("%v: worker %d ids not ascending: %d after %d", strat, w, id, prev)
				}
				prev = id
				c := l.Chunk(id)
				for i := c.Lo; i < c.Hi; i++ {
					if owner[i] != w {
						t.Fatalf("%v: worker %d's chunk %d holds pattern %d of worker %d", strat, w, id, i, owner[i])
					}
				}
				share[c.Span] += c.Len()
			}
			for sp, n := range share {
				if want := s.Count(w, sp); n != want {
					t.Fatalf("%v: worker %d walks %d patterns of span %d, want its share %d", strat, w, n, sp, want)
				}
			}
		}
	}
}

// TestLayoutRespectsMinChunkDefault checks defaulting, each share against
// its owner's schedule run and the chunks it is cut into, and the memory
// pricing.
func TestLayoutRespectsMinChunkDefault(t *testing.T) {
	spans := []schedule.Span{{Lo: 0, Hi: 1000, Cost: 2}}
	s, err := schedule.New(schedule.Block, 2, spans)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLayout(s, 0)
	if def := NewLayout(s, DefaultMinChunk); !reflect.DeepEqual(l, def) {
		t.Errorf("minChunk 0 cuts %d chunks, the default %d cuts %d", l.NumChunks(), DefaultMinChunk, def.NumChunks())
	}
	totalPatterns, shares := 0, 0
	// The global-alignment snap can shave up to ChunkAlign-1 patterns off a
	// run's final chunk.
	floor := DefaultMinChunk - (schedule.ChunkAlign - 1)
	for w := 0; w < l.Threads(); w++ {
		for _, sh := range l.Shares(w) {
			shares++
			if sh.Run != s.SpanRun(w, sh.Span) {
				t.Errorf("worker %d share %+v, want its schedule run %+v", w, sh, s.SpanRun(w, sh.Span))
			}
			n := 0
			for id := sh.First; id < sh.End; id++ {
				c := l.Chunk(id)
				if c.Len() < floor {
					t.Errorf("chunk %d has %d patterns, below the %d floor", id, c.Len(), floor)
				}
				n += c.Len()
			}
			if n != sh.Len() {
				t.Errorf("worker %d share %+v: its chunks hold %d patterns", w, sh, n)
			}
			totalPatterns += n
		}
	}
	if got, want := l.MemoryBytes(), int64(l.NumChunks())*3*8+int64(shares)*5*8; got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
	if totalPatterns != 1000 {
		t.Errorf("owner lists cover %d patterns, want 1000", totalPatterns)
	}
}

// TestSequentialLayoutsAgree: at one worker every strategy's schedule is one
// run per span, so Cyclic, Block and Weighted cut the same layout, chunk for
// chunk, at every chunk size.
func TestSequentialLayoutsAgree(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		spans := randomSpans(seed)
		for _, minChunk := range []int{0, 1, 16, 33, 64, 200} {
			var ref *Layout
			for _, strat := range []schedule.Strategy{schedule.Cyclic, schedule.Block, schedule.Weighted} {
				s, err := schedule.New(strat, 1, spans)
				if err != nil {
					t.Fatal(err)
				}
				l := NewLayout(s, minChunk)
				if ref == nil {
					ref = l
					continue
				}
				if l.NumChunks() != ref.NumChunks() {
					t.Fatalf("seed %d, min chunk %d: %v cuts %d chunks, cyclic %d", seed, minChunk, strat, l.NumChunks(), ref.NumChunks())
				}
				for id := 0; id < l.NumChunks(); id++ {
					if l.Chunk(id) != ref.Chunk(id) {
						t.Fatalf("seed %d, min chunk %d: %v chunk %d is %+v, cyclic's %+v", seed, minChunk, strat, id, l.Chunk(id), ref.Chunk(id))
					}
				}
			}
		}
	}
}
