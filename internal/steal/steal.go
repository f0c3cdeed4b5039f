// Package steal is the chunk layout of a schedule: every worker's run of
// every span cut into cache-line-aligned contiguous chunks (schedule.ChunkRuns),
// each chunk with one id. A region's workers each walk their own chunk ids in
// ascending order (internal/core's drain), and evaluate and derivative
// regions keep one partial sum per chunk, which the engine reduces in chunk-id
// order. The layout therefore fixes how every sum is grouped: sessions and
// executors over one layout agree bit for bit.
//
// The package name is historical: chunks were once the unit idle workers
// stole. Stealing is gone (DESIGN.md "Why there is no work stealing"); the
// chunks stay because they fix the summation grouping.
package steal

import (
	"unsafe"

	"phylo/internal/schedule"
)

// DefaultMinChunk is the default minimum chunk size in patterns. It is chosen
// to amortize tip-table locality: the kernels build a tip lookup table only
// for work units of at least 2*codes patterns (32 for DNA, 46 for AA), so a
// 64-pattern floor keeps chunk-sized work units on the specialized fast path,
// and it spans four or more cache lines of every per-pattern array the
// kernels touch.
const DefaultMinChunk = 64

// Chunk is one unit of a worker's share: a contiguous sub-run of one span's
// (partition's) pattern assignment, the run the kernels take. Share is the
// owner's total pattern count in the span across all its chunks — the unit
// the kernels size their tip-table decision by, so a share cut into many
// short runs still amortizes a table.
type Chunk struct {
	Span int
	schedule.Run
	Share int
}

// Layout is the immutable chunk decomposition of one schedule at one minimum
// chunk size. Chunk ids ascend by (span, owner, position); that id order is
// the engine's fixed reduction order. A dataset builds one layout and every
// session over it reads that value.
type Layout struct {
	sched    *schedule.Schedule
	chunks   []Chunk
	byWorker [][]int32 // chunk ids per owner, ascending
	minChunk int
}

// NewLayout chunks a schedule. minChunk < 1 selects DefaultMinChunk.
func NewLayout(s *schedule.Schedule, minChunk int) *Layout {
	if minChunk < 1 {
		minChunk = DefaultMinChunk
	}
	t := s.Threads()
	l := &Layout{sched: s, minChunk: minChunk, byWorker: make([][]int32, t)}
	for sp := 0; sp < s.NumSpans(); sp++ {
		for w := 0; w < t; w++ {
			share := s.Count(w, sp)
			for _, r := range s.ChunkRuns(w, sp, minChunk) {
				l.byWorker[w] = append(l.byWorker[w], int32(len(l.chunks)))
				l.chunks = append(l.chunks, Chunk{Span: sp, Run: r, Share: share})
			}
		}
	}
	return l
}

// NumChunks returns the total chunk count (the length of the engine's
// per-chunk partial-sum buffers).
func (l *Layout) NumChunks() int { return len(l.chunks) }

// Chunk returns chunk id's metadata.
func (l *Layout) Chunk(id int) Chunk { return l.chunks[id] }

// Owned returns worker w's chunk ids, ascending: exactly its scheduled share.
// The slice is shared; callers must not modify it.
func (l *Layout) Owned(w int) []int32 { return l.byWorker[w] }

// MinChunk returns the minimum chunk size the layout was cut at.
func (l *Layout) MinChunk() int { return l.minChunk }

// Threads returns the worker count the layout was built for.
func (l *Layout) Threads() int { return len(l.byWorker) }

// Schedule returns the schedule the layout cuts.
func (l *Layout) Schedule() *schedule.Schedule { return l.sched }

// MemoryBytes is the layout's own heap: the chunk table and the per-owner id
// lists.
func (l *Layout) MemoryBytes() int64 {
	return int64(len(l.chunks)) * int64(unsafe.Sizeof(Chunk{})+4)
}
