package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"phylo"
	"phylo/internal/obs"
)

// tinyDataset builds a small real dataset for cache tests.
func tinyDataset(t *testing.T, taxa, sites int, seed int64) *phylo.Dataset {
	t.Helper()
	al, err := phylo.SimulateGrid(taxa, sites, sites, 1.0, seed)
	if err != nil {
		t.Fatalf("SimulateGrid: %v", err)
	}
	ds, err := phylo.NewDataset(al, phylo.DatasetOptions{Threads: 1})
	if err != nil {
		t.Fatalf("NewDataset: %v", err)
	}
	return ds
}

// builderFor returns a build func that constructs a fresh tiny dataset and
// counts invocations.
func builderFor(t *testing.T, seed int64, builds *int64, mu *sync.Mutex) func() (*phylo.Dataset, error) {
	return func() (*phylo.Dataset, error) {
		mu.Lock()
		*builds++
		mu.Unlock()
		return tinyDataset(t, 8, 64, seed), nil
	}
}

// resident reports whether id is in the cache, without holding a reference.
func resident(c *DatasetCache, id string) bool {
	h, err := c.Ref(id)
	if err != nil {
		return false
	}
	h.Release()
	return true
}

// residentBytes reads the cache's priced total under its lock.
func residentBytes(c *DatasetCache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

func TestCacheHitAndMiss(t *testing.T) {
	c := NewDatasetCache(0, obs.NewRegistry()) // unbounded
	defer c.Close()
	var builds int64
	var mu sync.Mutex

	h1, cached, err := c.Acquire("a", builderFor(t, 1, &builds, &mu))
	if err != nil || cached {
		t.Fatalf("first acquire: cached=%v err=%v", cached, err)
	}
	h2, cached, err := c.Acquire("a", builderFor(t, 1, &builds, &mu))
	if err != nil || !cached {
		t.Fatalf("second acquire: cached=%v err=%v", cached, err)
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}
	if h1.Dataset() != h2.Dataset() {
		t.Fatal("handles disagree on the dataset")
	}
	if h1.Bytes() <= 0 {
		t.Fatalf("footprint price %d, want > 0", h1.Bytes())
	}
	h1.Release()
	h1.Release() // idempotent
	h2.Release()
	if hits, misses, entries := c.hits.Value(), c.misses.Value(), len(c.List()); hits != 1 || misses != 1 || entries != 1 {
		t.Fatalf("hits %v, misses %v, entries %d; want 1 each", hits, misses, entries)
	}
}

// TestCacheEvictionRespectsBudget fills the cache past its budget and checks
// (a) eviction is LRU, (b) a ref-held dataset is never evicted even when the
// budget is blown, (c) resident bytes return under the budget once the
// references drop.
func TestCacheEvictionRespectsBudget(t *testing.T) {
	// Price one entry to size the budget for exactly two of them.
	probe := tinyDataset(t, 8, 64, 99)
	one := probe.MemoryFootprint()
	probe.Close()

	c := NewDatasetCache(2*one, obs.NewRegistry())
	defer c.Close()
	var builds int64
	var mu sync.Mutex

	acquire := func(id string, seed int64) *CachedDataset {
		h, _, err := c.Acquire(id, builderFor(t, seed, &builds, &mu))
		if err != nil {
			t.Fatalf("acquire %s: %v", id, err)
		}
		return h
	}

	// a and b resident, both released; touching a makes b the LRU victim.
	acquire("a", 1).Release()
	acquire("b", 2).Release()
	ha := acquire("a", 1) // hit; a now referenced and most recently used

	// c blows the budget: b (LRU, unreferenced) goes; a is pinned.
	hc := acquire("c", 3)
	if n := c.evictions.Value(); n != 1 {
		t.Fatalf("evictions = %v, want 1", n)
	}
	if resident(c, "b") {
		t.Fatal("b should have been evicted (LRU)")
	}
	if !resident(c, "a") {
		t.Fatal("a (referenced) must never be evicted")
	}

	// A third referenced dataset: the cache must go over budget rather than
	// evict pinned entries.
	hd := acquire("d", 4)
	if !resident(c, "a") || !resident(c, "c") {
		t.Fatal("pinned entries evicted under budget pressure")
	}
	if b := residentBytes(c); b <= 2*one {
		t.Fatalf("expected over-budget while pinned: bytes=%d budget=%d", b, 2*one)
	}

	// Drop the references: the byte budget must be enforced again.
	ha.Release()
	hc.Release()
	hd.Release()
	if b := residentBytes(c); b > 2*one {
		t.Fatalf("cache stayed over budget after release: bytes=%d budget=%d", b, 2*one)
	}
}

func TestCacheCoalescedBuild(t *testing.T) {
	c := NewDatasetCache(0, obs.NewRegistry())
	defer c.Close()
	var builds int64
	var mu sync.Mutex

	const n = 8
	var wg sync.WaitGroup
	handles := make([]*CachedDataset, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			handles[i], _, errs[i] = c.Acquire("x", builderFor(t, 7, &builds, &mu))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1 (coalesced)", builds)
	}
	for _, h := range handles {
		if h.Dataset() != handles[0].Dataset() {
			t.Fatal("coalesced handles disagree")
		}
		h.Release()
	}
}

func TestCacheFailedBuildClearsSlot(t *testing.T) {
	c := NewDatasetCache(0, obs.NewRegistry())
	defer c.Close()
	boom := fmt.Errorf("no such alignment")
	if _, _, err := c.Acquire("bad", func() (*phylo.Dataset, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The slot must be clear: a retry builds fresh and succeeds.
	var builds int64
	var mu sync.Mutex
	h, cached, err := c.Acquire("bad", builderFor(t, 5, &builds, &mu))
	if err != nil || cached || builds != 1 {
		t.Fatalf("retry: cached=%v builds=%d err=%v", cached, builds, err)
	}
	h.Release()
}

// TestCacheBuildPanicReleasesWaiters: a build that panics must not strand the
// callers parked on it (each holds a place in the server's work group, so
// Drain would never return), must clear its slot for a retry, and must still
// propagate the panic on the goroutine that ran it.
func TestCacheBuildPanicReleasesWaiters(t *testing.T) {
	c := NewDatasetCache(0, obs.NewRegistry())
	defer c.Close()
	building, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Acquire("boom", func() (*phylo.Dataset, error) {
			close(building)
			<-release
			panic("build blew up")
		})
	}()
	<-building
	waiters := make(chan error, 2)
	go func() {
		_, _, err := c.Acquire("boom", func() (*phylo.Dataset, error) { return nil, errors.New("second build") })
		waiters <- err
	}()
	go func() {
		_, err := c.Ref("boom")
		waiters <- err
	}()
	waitFor(t, func() bool { // both parked on the build
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.entries["boom"].refs == 3
	})
	close(release)
	if r := <-panicked; r == nil {
		t.Error("the panic must propagate on the goroutine that ran the build")
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-waiters:
			if !errors.Is(err, errBuildPanicked) {
				t.Errorf("waiter err = %v, want %v", err, errBuildPanicked)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a waiter is still parked on the panicked build")
		}
	}
	var builds int64
	var mu sync.Mutex
	h, cached, err := c.Acquire("boom", builderFor(t, 5, &builds, &mu))
	if err != nil || cached || builds != 1 {
		t.Fatalf("retry: cached=%v builds=%d err=%v", cached, builds, err)
	}
	h.Release()
}

func TestCacheRemove(t *testing.T) {
	c := NewDatasetCache(0, obs.NewRegistry())
	defer c.Close()
	var builds int64
	var mu sync.Mutex
	h, _, err := c.Acquire("a", builderFor(t, 1, &builds, &mu))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("a"); !errors.Is(err, ErrDatasetBusy) {
		t.Fatalf("Remove(referenced) = %v, want ErrDatasetBusy", err)
	}
	h.Release()
	if err := c.Remove("a"); err != nil {
		t.Fatalf("Remove(idle) = %v", err)
	}
	if err := c.Remove("a"); !errors.Is(err, ErrDatasetNotCached) {
		t.Fatalf("Remove(gone) = %v, want ErrDatasetNotCached", err)
	}
}

func TestCacheList(t *testing.T) {
	c := NewDatasetCache(0, obs.NewRegistry())
	defer c.Close()
	var builds int64
	var mu sync.Mutex
	h, _, err := c.Acquire("a", builderFor(t, 1, &builds, &mu))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	infos := c.List()
	if len(infos) != 1 || infos[0].ID != "a" || infos[0].Refs != 1 || infos[0].MemoryBytes <= 0 {
		t.Fatalf("List = %+v", infos)
	}
	if infos[0].Taxa != 8 || infos[0].Patterns <= 0 {
		t.Fatalf("List[0] = %+v", infos[0])
	}
}

func TestCacheClosed(t *testing.T) {
	c := NewDatasetCache(0, obs.NewRegistry())
	c.Close()
	if _, _, err := c.Acquire("a", nil); !errors.Is(err, ErrCacheClosed) {
		t.Fatalf("Acquire after close = %v", err)
	}
	if _, err := c.Ref("a"); !errors.Is(err, ErrCacheClosed) {
		t.Fatalf("Ref after close = %v", err)
	}
	c.Close() // idempotent
}
