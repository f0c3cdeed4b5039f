package server

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"

	"phylo"
	"phylo/internal/obs"
)

// Errors returned by the dataset cache. Use errors.Is to test.
var (
	// ErrDatasetNotCached is returned when a request names a dataset handle
	// that is no longer (or never was) resident; the client must resubmit
	// the alignment.
	ErrDatasetNotCached = errors.New("server: dataset not cached (resubmit the alignment)")
	// ErrDatasetBusy is returned by Remove for a dataset with live
	// references.
	ErrDatasetBusy = errors.New("server: dataset has in-flight work")
	// ErrCacheClosed is returned once the cache has been shut down.
	ErrCacheClosed = errors.New("server: dataset cache closed")
	// errBuildPanicked is what the callers waiting on a dataset build receive
	// when it panicked instead of returning (the panic itself propagates on
	// the goroutine that ran it).
	errBuildPanicked = errors.New("server: the dataset build this request was waiting on panicked")
)

// DatasetInfo is the client-visible description of one cached dataset.
type DatasetInfo struct {
	ID          string `json:"id"`
	Taxa        int    `json:"taxa"`
	Sites       int    `json:"sites"`
	Patterns    int    `json:"patterns"`
	Partitions  int    `json:"partitions"`
	MemoryBytes int64  `json:"memory_bytes"`
	Refs        int    `json:"refs"`
}

// cacheEntry is one resident dataset: the handle id (alignment digest), the
// built Dataset, its byte price, the live reference count, and its position
// in the LRU list (only unreferenced entries are listed — an entry with
// in-flight work is pinned and cannot be evicted).
type cacheEntry struct {
	id    string
	ds    *phylo.Dataset
	bytes int64
	refs  int
	lru   *list.Element // nil while refs > 0

	// Build synchronization: concurrent submits of the same alignment build
	// once; latecomers block on ready and observe err.
	ready chan struct{}
	err   error
}

// DatasetCache is the daemon's ref-counted dataset cache: immutable
// phylo.Datasets keyed by alignment digest, priced by
// Dataset.MemoryFootprint, evicted least-recently-used against a byte
// budget. Referenced entries are never evicted — a dataset with in-flight
// analyses is pinned until every handle is released — and concurrent
// submissions of the same alignment coalesce onto one build.
type DatasetCache struct {
	budget int64

	mu      sync.Mutex
	entries map[string]*cacheEntry
	lru     *list.List // unreferenced entries, front = most recently used
	bytes   int64      // total price of resident, fully built entries
	closed  bool

	hits, misses, evictions *obs.Counter
}

// NewDatasetCache creates a cache with the given byte budget, counting into
// reg. A budget <= 0 means unbounded (nothing is ever evicted for size).
func NewDatasetCache(budget int64, reg *obs.Registry) *DatasetCache {
	c := &DatasetCache{
		budget:    budget,
		entries:   make(map[string]*cacheEntry),
		lru:       list.New(),
		hits:      reg.Counter("plk_cache_hits_total", "Dataset cache digest hits (build skipped)."),
		misses:    reg.Counter("plk_cache_misses_total", "Dataset cache misses (full dataset build ran)."),
		evictions: reg.Counter("plk_cache_evictions_total", "Datasets evicted from the cache to meet the byte budget."),
	}
	reg.GaugeFunc("plk_cache_entries", "Datasets currently resident in the cache.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(len(c.entries)) })
	reg.GaugeFunc("plk_cache_bytes", "Estimated heap bytes of the resident datasets.",
		func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.bytes) })
	return c
}

// CachedDataset is a live reference to a cache entry. The dataset is pinned
// (never evicted) until Release; Release is idempotent.
type CachedDataset struct {
	c     *DatasetCache
	e     *cacheEntry
	once  sync.Once
	onRel func()
}

// ID returns the dataset handle (the alignment digest).
func (h *CachedDataset) ID() string { return h.e.id }

// Dataset returns the pinned dataset.
func (h *CachedDataset) Dataset() *phylo.Dataset { return h.e.ds }

// Bytes returns the entry's cache price.
func (h *CachedDataset) Bytes() int64 { return h.e.bytes }

// Release drops this reference. When the last reference goes, the entry
// becomes eligible for LRU eviction (it stays resident until the budget
// forces it out).
func (h *CachedDataset) Release() {
	h.once.Do(func() {
		h.c.release(h.e)
		if h.onRel != nil {
			h.onRel()
		}
	})
}

// Acquire returns a pinned reference to the dataset with the given id,
// building it with build on a miss. Concurrent Acquires of one id share a
// single build; if the build fails (or panics) every waiter sees an error and
// the slot is cleared so a later submit can retry. The returned handle must
// be Released.
func (c *DatasetCache) Acquire(id string, build func() (*phylo.Dataset, error)) (*CachedDataset, bool, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrCacheClosed
	}
	if e, ok := c.entries[id]; ok {
		c.ref(e)
		c.hits.Inc()
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// The build we latched onto failed; the builder already removed
			// the entry. Surface its error.
			c.release(e)
			return nil, false, e.err
		}
		return &CachedDataset{c: c, e: e}, true, nil
	}
	e := &cacheEntry{id: id, refs: 1, ready: make(chan struct{}), err: errBuildPanicked} // until build returns
	c.entries[id] = e
	c.misses.Inc()
	c.mu.Unlock()

	c.fill(e, build)
	if e.err != nil {
		return nil, false, e.err
	}
	return &CachedDataset{c: c, e: e}, false, nil
}

// fill runs build for the reserved entry e and publishes the outcome to its
// waiters. It publishes in a defer, so a build that panics still clears the
// slot and releases the waiters with errBuildPanicked (each holds a place in
// the server's work group, which Drain waits on) before the panic propagates
// on the goroutine that ran it.
func (c *DatasetCache) fill(e *cacheEntry, build func() (*phylo.Dataset, error)) {
	defer func() {
		c.mu.Lock()
		if e.err == nil && c.closed {
			e.err = ErrCacheClosed
			e.ds.Close()
			e.ds = nil
		}
		var victims []*phylo.Dataset
		if e.err != nil {
			delete(c.entries, e.id)
		} else {
			e.bytes = e.ds.MemoryFootprint()
			c.bytes += e.bytes
			victims = c.evictLocked()
		}
		c.mu.Unlock()
		close(e.ready)
		closeAll(victims)
	}()
	e.ds, e.err = build()
}

// Ref returns a pinned reference to an already-resident dataset, or
// ErrDatasetNotCached. It never builds.
func (c *DatasetCache) Ref(id string) (*CachedDataset, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrCacheClosed
	}
	e, ok := c.entries[id]
	if !ok {
		c.mu.Unlock()
		return nil, ErrDatasetNotCached
	}
	c.ref(e)
	c.hits.Inc()
	c.mu.Unlock()
	<-e.ready
	if e.err != nil {
		c.release(e)
		return nil, e.err
	}
	return &CachedDataset{c: c, e: e}, nil
}

// ref pins an entry: removes it from the LRU list while referenced. Caller
// holds c.mu.
func (c *DatasetCache) ref(e *cacheEntry) {
	e.refs++
	if e.lru != nil {
		c.lru.Remove(e.lru)
		e.lru = nil
	}
}

// release unpins one reference; the last release lists the entry as most
// recently used and applies the budget.
func (c *DatasetCache) release(e *cacheEntry) {
	c.mu.Lock()
	e.refs--
	var victims []*phylo.Dataset
	if e.refs == 0 && e.lru == nil && c.entries[e.id] == e {
		e.lru = c.lru.PushFront(e)
		victims = c.evictLocked()
	}
	c.mu.Unlock()
	closeAll(victims)
}

// evictLocked drops least-recently-used unreferenced entries until the
// resident bytes fit the budget, returning the datasets to close outside the
// lock. Referenced entries are pinned (not listed), so a cache whose live
// working set exceeds the budget simply stays over it until references
// drain — admission control, not the cache, is the mechanism that bounds
// concurrent work.
func (c *DatasetCache) evictLocked() []*phylo.Dataset {
	if c.budget <= 0 {
		return nil
	}
	var victims []*phylo.Dataset
	for c.bytes > c.budget {
		back := c.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		e.lru = nil
		delete(c.entries, e.id)
		c.bytes -= e.bytes
		c.evictions.Inc()
		victims = append(victims, e.ds)
	}
	return victims
}

// Remove explicitly drops an unreferenced dataset (DELETE /v1/datasets/{id}).
func (c *DatasetCache) Remove(id string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrCacheClosed
	}
	e, ok := c.entries[id]
	if !ok {
		c.mu.Unlock()
		return ErrDatasetNotCached
	}
	if e.refs > 0 {
		c.mu.Unlock()
		return fmt.Errorf("%w: %d reference(s)", ErrDatasetBusy, e.refs)
	}
	if e.lru != nil {
		c.lru.Remove(e.lru)
		e.lru = nil
	}
	delete(c.entries, id)
	c.bytes -= e.bytes
	ds := e.ds
	c.mu.Unlock()
	if ds != nil {
		ds.Close()
	}
	return nil
}

// List describes every resident dataset (build-complete entries only).
func (c *DatasetCache) List() []DatasetInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]DatasetInfo, 0, len(c.entries))
	for _, e := range c.entries {
		select {
		case <-e.ready:
		default:
			continue // still building
		}
		if e.err != nil {
			continue
		}
		out = append(out, DatasetInfo{
			ID:          e.id,
			Taxa:        e.ds.NumTaxa(),
			Sites:       e.ds.NumSites(),
			Patterns:    e.ds.NumPatterns(),
			Partitions:  e.ds.NumPartitions(),
			MemoryBytes: e.bytes,
			Refs:        e.refs,
		})
	}
	// The entries map's iteration order is randomized; sort so /v1/datasets
	// responses are stable across calls and runs.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close evicts everything and rejects further use. Callers must have drained
// in-flight work first (the server's Drain does); entries still referenced
// are closed anyway — their sessions degrade per Dataset.Close semantics.
func (c *DatasetCache) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	var victims []*phylo.Dataset
	for id, e := range c.entries {
		select {
		case <-e.ready:
			if e.err == nil {
				victims = append(victims, e.ds)
			}
		default:
			// Still building; the builder observes closed and cleans up.
		}
		delete(c.entries, id)
	}
	c.lru.Init()
	c.bytes = 0
	c.mu.Unlock()
	closeAll(victims)
}

// closeAll closes evicted datasets outside the cache lock.
func closeAll(victims []*phylo.Dataset) {
	for _, ds := range victims {
		ds.Close()
	}
}
