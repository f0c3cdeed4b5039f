package core

import (
	"unsafe"

	"phylo/internal/steal"
)

// Memory accounting. A likelihood-serving cache needs a price per dataset to
// evict against a byte budget, and that price has two parts: what the dataset
// keeps resident (compressed alignment, its schedule, layout tables) and
// what a session opened over it holds (CLVs, scaling vectors, the sumtable
// once a branch has been smoothed, per-worker scratch, the per-chunk sums).
// Buffer sets parked between sessions (Shared.retired) are that same
// one-session term, not an extra: sequential sessions pass one set along and
// the collector empties the pool. The session part
// dominates by orders of magnitude on real datasets — (taxa-2) CLV buffers of
// layout.Total() floats each — so a cache that priced only the shared half
// would badly undercount the capacity a cached dataset consumes once it
// serves traffic.

// MemoryFootprint itemizes the heap bytes of one Shared and the schedule of a
// chunk layout over it, plus the estimated bytes of one session draining that
// layout. All figures count the large flat buffers and tables; per-object Go
// runtime overhead (slice headers, map buckets, goroutine stacks) is not
// modelled, nor are a session's step list and lane sums (24 bytes an inner
// node, 8 a partition and replicate).
type MemoryFootprint struct {
	// CompressedAlignment covers the pattern-compressed dataset: encoded tip
	// codes ([taxon][pattern] bytes), pattern weights (per partition and as
	// the width-1 WeightSet the reductions read), presence masks, and
	// taxon/partition names.
	CompressedAlignment int64 `json:"compressed_alignment"`
	// Schedules covers the priced span table and the schedule the layout
	// cuts: the dataset's one pattern-to-worker assignment.
	Schedules int64 `json:"schedules"`
	// Layout covers the CLV/sumtable geometry descriptor (its one table of
	// per-partition records).
	Layout int64 `json:"layout"`
	// SessionCLVs is the dominant per-session term: (taxa-2) inner-node
	// buffers of layout.Total() float64s each, padding included.
	SessionCLVs int64 `json:"session_clvs"`
	// SessionScales is the per-inner-node int32 scaling-exponent vectors.
	SessionScales int64 `json:"session_scales"`
	// SessionSumtable is the branch-derivative workspace (allocated by the
	// first BranchDerivatives; evaluate-only sessions never hold it).
	SessionSumtable int64 `json:"session_sumtable"`
	// SessionScratch is the worker records, priced from workerSizes: the
	// transition-matrix memo at its cap (pmMemoSlots blocks of cats × s × s
	// floats per partition, the large term on protein data; a session
	// allocates a block only when a slot first misses, so evaluate-only
	// sessions hold a fraction of it) and the spare block, the kind scratch,
	// the two tip lookup tables (codes × cats × s floats), and the
	// per-pattern scaling flags of the fused newview.
	SessionScratch int64 `json:"session_scratch"`
	// SessionChunks is what distributing patterns costs a session: the chunk
	// layout it walks and the per-chunk evaluate and derivative partial sums
	// at batch width 1. The
	// layout is the dataset's, priced here once, at the chunk size its
	// sessions run.
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
// estimated bytes of a session draining l (Options.Layout), pricing l and
// its schedule as they are. Safe for concurrent use.
func (sh *Shared) MemoryFootprint(l *steal.Layout) MemoryFootprint {
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
	f.Schedules = 24*int64(len(sh.spans)) + // Span{Lo, Hi int; Cost float64}
		l.Schedule().MemoryBytes()
	f.SessionChunks = l.MemoryBytes() +
		3*8*int64(l.NumChunks()) // evaluate + (d1, d2) partials per chunk
	f.Layout = sh.layout.memoryBytes()

	nInner := int64(sh.Data.NumTaxa() - 2)
	f.SessionCLVs = nInner * 8 * int64(sh.layout.Total())
	f.SessionScales = nInner * 4 * int64(sh.Data.TotalPatterns)
	f.SessionSumtable = 8 * int64(sh.layout.SumTotal())
	n := sh.workerSizes()
	perWorker := 8*int64(n.spare+n.ex+2*n.tip) + int64(n.small)
	for _, p := range sh.layout.parts {
		// The memo at its cap: every slot's block allocated.
		perWorker += int64(unsafe.Sizeof(pmMemo{})) + pmMemoSlots*8*int64(p.cs*p.s)
	}
	f.SessionScratch = int64(sh.Threads) * perWorker
	return f
}
