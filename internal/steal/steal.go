// Package steal is the share layout of a schedule: every worker's one run of
// every span (its share), listed per worker in span order and all together
// in (span, owner) order, each with one slot id. A share is the unit
// internal/core's drain binds, runs and prices, and its slot is the one
// partial sum an evaluate or derivative region keeps for it (a lane each),
// reduced in slot-id order; so the schedule alone fixes how every sum is
// grouped, and sessions and executors over one schedule agree bit for bit.
// The name is historical: shares were once cut into chunks that idle workers
// stole (DESIGN.md "Why there is no work stealing").
package steal

import (
	"unsafe"

	"phylo/internal/schedule"
)

// Share is one worker's whole run of one span and its reduction slot.
type Share struct {
	Span int
	schedule.Run
	Slot int
}

// Layout is the immutable share list of one schedule. Slot ids ascend by
// (span, owner); that id order is the engine's fixed reduction order. A
// dataset builds one layout and every session over it reads that value.
type Layout struct {
	sched  *schedule.Schedule
	slots  []Share   // every non-empty share, at its slot id
	shares [][]Share // per owner, its non-empty shares in span order
}

// NewLayout lists a schedule's shares.
//
// Deprecated: minChunk is ignored. A share is one reduction slot; its
// chunks and their minimum size are gone.
func NewLayout(s *schedule.Schedule, minChunk int) *Layout {
	t := s.Threads()
	l := &Layout{sched: s, shares: make([][]Share, t)}
	for sp := 0; sp < s.NumSpans(); sp++ {
		for w := 0; w < t; w++ {
			if r := s.SpanRun(w, sp); r.Len() > 0 {
				sh := Share{Span: sp, Run: r, Slot: len(l.slots)}
				l.slots = append(l.slots, sh)
				l.shares[w] = append(l.shares[w], sh)
			}
		}
	}
	return l
}

// Slots returns every share in slot-id order: the engine's partial slots a
// lane. The slice is shared; callers must not modify it.
func (l *Layout) Slots() []Share { return l.slots }

// Shares returns worker w's non-empty shares in span order: exactly its
// scheduled patterns. The slice is shared; callers must not modify it.
func (l *Layout) Shares(w int) []Share { return l.shares[w] }

// Threads returns the worker count the layout was built for.
func (l *Layout) Threads() int { return len(l.shares) }

// Schedule returns the schedule the layout lists.
func (l *Layout) Schedule() *schedule.Schedule { return l.sched }

// MemoryBytes is the layout's own heap: the share records, listed twice.
func (l *Layout) MemoryBytes() int64 {
	return 2 * int64(len(l.slots)) * int64(unsafe.Sizeof(Share{}))
}
