package core

import (
	"unsafe"

	"phylo/internal/alignment"
	"phylo/internal/model"
)

// The CLV memory layout. The conditional likelihood vector of one inner node
// holds, per partition, patternCount × cats × states float64 entries, and
// every backend stores them the same way: each category is one contiguous,
// cache-line-aligned plane of patternCount×s entries,
//
//	idx(ip, j, c, a) = Base(ip) + c·catStride(ip) + j·s + a.
//
// Within a plane, consecutive patterns' state vectors are adjacent s-length
// lanes, so a kernel that fixes the category can hoist the whole cats-slice of
// the transition matrix into registers and sweep patterns over three linear
// streams (two reads, one write) — the straight-line multiply-add shape the
// 4-state DNA kernels want — while the generic bodies, which take a pattern
// across all categories, step catStride between its blocks. A backend chooses
// bodies, not memory (backend.go). The sumtable keeps its own pattern-major
// geometry (the derivative kernel reduces one pattern's cats·s entries at a
// time and never touches CLVs); its partition bases are cache-line aligned
// like everything else.

// CLVLayout maps (partition, pattern, category, state) to offsets in the
// flat per-node CLV buffers and (partition, pattern) to offsets in the
// sumtable workspace. Everything it knows about one partition is one record
// (partition); it is immutable and shared read-only by every session over
// one Shared.
type CLVLayout struct {
	parts    []partition // the one per-partition table
	total    int         // CLV floats per inner node, padding included
	sumTotal int         // sumtable floats, padding included
}

// partition is what a span of a partition reads that no region, model or
// branch changes: its geometry in the CLVs and the sumtable, its alphabet,
// and the kernel body and P application it runs. NewSharedWith builds one per
// partition, and a binding takes it whole (spanCtx.bind).
type partition struct {
	s, cats, cs int // states, categories, cats·s
	base        int // CLV offset of (pattern 0, cat 0, state 0)
	catStride   int // CLV offset between consecutive categories: one aligned plane
	sumBase     int // sumtable offset of (pattern 0, cat 0, state 0)
	partOffset  int // global index of the partition's first pattern
	dtype       alignment.DataType
	body        kernelBody // which newview/evaluate body the partition runs (bodyFor)

	// applyP is the generic bodies' P application, dst = P_c·x over one block
	// of a spanEnd's pm, for the block layout of the alphabet
	// (model.PMatrices): applyRows over a 4-state block's rows,
	// model.ApplyCols over a wider block's columns.
	applyP func(dst, pm, x []float64)

	invCats float64 // 1/cats: the evaluate and sumtable normalisation
}

// newCLVLayout builds the layout for one dataset under a resolved backend.
// Partition bases — CLV and sumtable — land on 64-byte boundaries relative
// to the (aligned) buffer start, and the plane stride is rounded up so every
// category plane is aligned too.
func newCLVLayout(parts []*alignment.CompressedPartition, numCats int, backend Backend) *CLVLayout {
	l := &CLVLayout{parts: make([]partition, len(parts))}
	off, soff := 0, 0
	for i, p := range parts {
		s := p.Type.States()
		plane := alignFloats(p.PatternCount * s)
		l.parts[i] = partition{
			s: s, cats: numCats, cs: numCats * s,
			base: off, catStride: plane, sumBase: soff, partOffset: p.Offset,
			dtype: p.Type, body: bodyFor(backend, s),
			applyP: model.ApplyCols, invCats: 1.0 / float64(numCats),
		}
		if s == 4 {
			l.parts[i].applyP = applyRows
		}
		off += numCats * plane
		soff += alignFloats(p.PatternCount * numCats * s)
	}
	l.total = off
	l.sumTotal = soff
	return l
}

// Total returns the CLV buffer length per inner node, padding included.
func (l *CLVLayout) Total() int { return l.total }

// SumTotal returns the sumtable workspace length, padding included.
func (l *CLVLayout) SumTotal() int { return l.sumTotal }

// Index returns the offset of (partition ip, local pattern j, category c,
// state 0); state a lives at Index(ip, j, c) + a.
func (l *CLVLayout) Index(ip, j, c int) int {
	p := &l.parts[ip]
	return p.base + c*p.catStride + j*p.s
}

// memoryBytes is what the descriptor's record table holds.
func (l *CLVLayout) memoryBytes() int64 {
	return int64(len(l.parts)) * int64(unsafe.Sizeof(partition{}))
}
