package core

import (
	"unsafe"

	"phylo/internal/steal"
)

// Memory accounting. A likelihood-serving cache needs a price per dataset to
// evict against a byte budget, and that price has two parts: what the Shared
// itself keeps resident (compressed alignment, schedules, layout tables) and
// what a session opened over it holds (CLVs, scaling vectors, the sumtable
// once a branch has been smoothed, per-worker scratch, the chunk runtime).
// Buffer sets parked between sessions (Shared.retired) are that same
// one-session term, not an extra: sequential sessions pass one set along and
// the collector empties the pool. The session part
// dominates by orders of magnitude on real datasets — (taxa-2) CLV buffers of
// layout.Total() floats each — so a cache that priced only the shared half
// would badly undercount the capacity a cached dataset consumes once it
// serves traffic.

// MemoryFootprint itemizes the heap bytes of one Shared plus the estimated
// bytes of one session over it. All figures count the large flat buffers and
// tables; per-object Go runtime overhead (slice headers, map buckets,
// goroutine stacks) is not modelled.
type MemoryFootprint struct {
	// CompressedAlignment covers the pattern-compressed dataset: encoded tip
	// codes ([taxon][pattern] bytes), pattern weights (per partition and as
	// the width-1 WeightSet the reductions read), presence masks, and
	// taxon/partition names.
	CompressedAlignment int64 `json:"compressed_alignment"`
	// Schedules covers the schedules built so far: one immutable schedule per
	// strategy, built when the first session asks for it.
	Schedules int64 `json:"schedules"`
	// Layout covers the CLV/sumtable geometry descriptor (per-partition
	// offset and stride tables).
	Layout int64 `json:"layout"`
	// SessionCLVs is the dominant per-session term: (taxa-2) inner-node
	// buffers of layout.Total() float64s each, padding included.
	SessionCLVs int64 `json:"session_clvs"`
	// SessionScales is the per-inner-node int32 scaling-exponent vectors.
	SessionScales int64 `json:"session_scales"`
	// SessionSumtable is the branch-derivative workspace (allocated by the
	// first PrepareSumtable; evaluate-only sessions never hold it).
	SessionSumtable int64 `json:"session_sumtable"`
	// SessionScratch is the per-worker kernel scratch: the transition-matrix
	// memo at its cap (pmMemoSlots blocks of cats × s × s floats per
	// partition, the large term on protein data; a session allocates a block
	// only when a slot first misses, so evaluate-only sessions hold a
	// fraction of it) and the spare block, the derivative tables (the same
	// floats hold a sumtable region's transposed eigenvectors), the two tip
	// lookup tables per worker (codes × cats × s floats), and on the fused
	// backend the per-pattern scaling flags.
	SessionScratch int64 `json:"session_scratch"`
	// SessionChunks is what distributing patterns costs a session: the chunk
	// layout of its schedule, the steal runtime over it (deque words, backing
	// arrays, loaded-id lists), and the per-chunk evaluate and derivative
	// partial sums at batch width 1. It is priced for the default minimum
	// chunk size on the schedule with the most chunks built so far.
	SessionChunks int64 `json:"session_chunks"`
}

// SharedBytes totals the session-independent (dataset-resident) terms.
func (f MemoryFootprint) SharedBytes() int64 {
	return f.CompressedAlignment + f.Schedules + f.Layout
}

// SessionBytes totals the estimated allocation of one session.
func (f MemoryFootprint) SessionBytes() int64 {
	return f.SessionCLVs + f.SessionScales + f.SessionSumtable + f.SessionScratch + f.SessionChunks
}

// TotalBytes is SharedBytes plus one session's SessionBytes — the price of
// keeping a dataset resident and serving it.
func (f MemoryFootprint) TotalBytes() int64 {
	return f.SharedBytes() + f.SessionBytes()
}

// MemoryFootprint computes the shared state's resident bytes and the
// estimated per-session bytes. Safe for concurrent use; the schedule term
// reflects the schedules built so far.
func (sh *Shared) MemoryFootprint() MemoryFootprint {
	var f MemoryFootprint
	for _, name := range sh.Data.TaxaNames {
		f.CompressedAlignment += int64(len(name))
	}
	for _, p := range sh.Data.Parts {
		f.CompressedAlignment += int64(len(p.Name)) +
			8*int64(len(p.Weights)) + int64(len(p.Present))
		for _, tips := range p.Tips {
			f.CompressedAlignment += int64(len(tips))
		}
		for _, codes := range p.Codes {
			f.CompressedAlignment += int64(len(codes))
		}
	}
	f.CompressedAlignment += sh.weights.MemoryBytes()
	sh.mu.Lock()
	f.Schedules = 24 * int64(len(sh.spans)) // Span{Lo, Hi int; Cost float64}
	for _, s := range sh.scheds {           //plk:allow(maprange) commutative sum and max; order-free
		f.Schedules += s.MemoryBytes()
		l := steal.NewLayout(s, 0)
		chunks := l.MemoryBytes() + l.RuntimeBytes() +
			3*8*int64(l.NumChunks()) // evaluate + (d1, d2) partials per chunk
		if chunks > f.SessionChunks {
			f.SessionChunks = chunks
		}
	}
	sh.mu.Unlock()
	// Seven per-partition int slices in CLVLayout (base, patStride,
	// catStride, states, counts, sumBase) plus the schedule spans above.
	f.Layout = 8 * 7 * int64(len(sh.Data.Parts))

	nInner := int64(sh.Data.NumTaxa() - 2)
	f.SessionCLVs = nInner * 8 * int64(sh.layout.Total())
	f.SessionScales = nInner * 4 * int64(sh.Data.TotalPatterns)
	f.SessionSumtable = 8 * int64(sh.layout.SumTotal())
	perWorker := 8 * (sh.NumCats*sh.maxS*sh.maxS + // spare P-matrix block
		sh.exScratchLen() + // derivative tables, or the generic bodies' s-vectors
		2*sh.maxCodes*sh.NumCats*sh.maxS) // tip lookup-table pair
	for _, p := range sh.Data.Parts {
		s := p.Type.States()
		perWorker += int(unsafe.Sizeof(pmMemo{})) + pmMemoSlots*8*sh.NumCats*s*s
	}
	if sh.Backend == BackendFused {
		perWorker += sh.maxPatterns() // scaling flags, one bool per pattern
	}
	f.SessionScratch = int64(sh.Threads) * int64(perWorker)
	return f
}

// maxPatterns is the pattern count of the widest partition.
func (sh *Shared) maxPatterns() int {
	n := 0
	for _, p := range sh.Data.Parts {
		if p.PatternCount > n {
			n = p.PatternCount
		}
	}
	return n
}
