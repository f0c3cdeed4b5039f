// Package steal is the chunk layout of a schedule: every worker's run of
// every span (its share) cut into cache-line-aligned contiguous chunks
// (schedule.ChunkRuns), each with one id. A chunk is only a reduction slot:
// internal/core's drain runs a worker's shares in span order, and evaluate
// and derivative regions keep one partial sum per chunk, reduced in chunk-id
// order, so the layout fixes how every sum is grouped and sessions and
// executors over one layout agree bit for bit. The name is historical: chunks
// were once what idle workers stole (DESIGN.md "Why there is no work stealing").
package steal

import (
	"unsafe"

	"phylo/internal/schedule"
)

// DefaultMinChunk is the minimum chunk size every dataset cuts its schedule
// at, in patterns: four or more cache lines of every per-pattern array the
// kernels touch.
const DefaultMinChunk = 64

// Chunk is one reduction slot: a contiguous sub-run of one span's
// (partition's) pattern assignment to one worker.
type Chunk struct {
	Span int
	schedule.Run
}

// Share is one worker's whole run of one span, the unit the engine binds and
// runs, and the ids First…End-1 of the chunks it is cut into.
type Share struct {
	Span int
	schedule.Run
	First, End int
}

// Layout is the immutable chunk decomposition of one schedule at one minimum
// chunk size. Chunk ids ascend by (span, owner, position); that id order is
// the engine's fixed reduction order. A dataset builds one layout and every
// session over it reads that value.
type Layout struct {
	sched  *schedule.Schedule
	chunks []Chunk
	shares [][]Share // per owner, its non-empty shares in span order
}

// NewLayout chunks a schedule. minChunk < 1 selects DefaultMinChunk.
func NewLayout(s *schedule.Schedule, minChunk int) *Layout {
	if minChunk < 1 {
		minChunk = DefaultMinChunk
	}
	t := s.Threads()
	l := &Layout{sched: s, shares: make([][]Share, t)}
	for sp := 0; sp < s.NumSpans(); sp++ {
		for w := 0; w < t; w++ {
			first := len(l.chunks)
			for _, r := range s.ChunkRuns(w, sp, minChunk) {
				l.chunks = append(l.chunks, Chunk{Span: sp, Run: r})
			}
			if len(l.chunks) > first {
				l.shares[w] = append(l.shares[w], Share{Span: sp, Run: s.SpanRun(w, sp), First: first, End: len(l.chunks)})
			}
		}
	}
	return l
}

// NumChunks returns the total chunk count: the engine's partial slots a lane.
func (l *Layout) NumChunks() int { return len(l.chunks) }

// Chunk returns chunk id's metadata.
func (l *Layout) Chunk(id int) Chunk { return l.chunks[id] }

// Shares returns worker w's non-empty shares in span order: exactly its
// scheduled patterns. The slice is shared; callers must not modify it.
func (l *Layout) Shares(w int) []Share { return l.shares[w] }

// Threads returns the worker count the layout was built for.
func (l *Layout) Threads() int { return len(l.shares) }

// Schedule returns the schedule the layout cuts.
func (l *Layout) Schedule() *schedule.Schedule { return l.sched }

// MemoryBytes is the layout's own heap: the chunk table and the share
// records.
func (l *Layout) MemoryBytes() int64 {
	n := int64(len(l.chunks)) * int64(unsafe.Sizeof(Chunk{}))
	for _, own := range l.shares {
		n += int64(len(own)) * int64(unsafe.Sizeof(Share{}))
	}
	return n
}
