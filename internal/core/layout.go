package core

import "phylo/internal/alignment"

// The CLV memory layout. The conditional likelihood vector of one inner node
// holds, per partition, patternCount × cats × states float64 entries, and
// every backend stores them the same way: each category is one contiguous,
// cache-line-aligned plane of patternCount×s entries,
//
//	idx(ip, j, c, a) = Base(ip) + c·CatStride(ip) + j·s + a.
//
// Within a plane, consecutive patterns' state vectors are adjacent s-length
// lanes, so a kernel that fixes the category can hoist the whole cats-slice of
// the transition matrix into registers and sweep patterns over three linear
// streams (two reads, one write) — the straight-line multiply-add shape the
// 4-state DNA kernels want — while the generic bodies, which take a pattern
// across all categories, step CatStride between its blocks. A backend chooses
// bodies, not memory (backend.go). The sumtable keeps its own pattern-major
// geometry (the derivative kernel reduces one pattern's cats·s entries at a
// time and never touches CLVs); its partition bases are cache-line aligned
// like everything else.

// CLVLayout maps (partition, pattern, category, state) to offsets in the
// flat per-node CLV buffers and (partition, pattern) to offsets in the
// sumtable workspace. It is immutable and shared read-only by every session
// over one Shared.
type CLVLayout struct {
	cats      int
	base      []int // per partition: offset of (pattern 0, cat 0, state 0)
	catStride []int // per partition: offset between consecutive categories
	states    []int // per partition: s, the offset between consecutive patterns
	total     int   // CLV floats per inner node, padding included
	sumBase   []int // per partition: sumtable offset
	sumTotal  int   // sumtable floats, padding included
}

// newCLVLayout builds the layout for one dataset. Partition bases — CLV and
// sumtable — land on 64-byte boundaries relative to the (aligned) buffer
// start, and the plane stride is rounded up so every category plane is
// aligned too.
func newCLVLayout(parts []*alignment.CompressedPartition, numCats int) *CLVLayout {
	l := &CLVLayout{
		cats:      numCats,
		base:      make([]int, len(parts)),
		catStride: make([]int, len(parts)),
		states:    make([]int, len(parts)),
		sumBase:   make([]int, len(parts)),
	}
	off, soff := 0, 0
	for i, p := range parts {
		s := p.Type.States()
		plane := alignFloats(p.PatternCount * s)
		l.states[i] = s
		l.base[i] = off
		l.catStride[i] = plane
		l.sumBase[i] = soff
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

// Base returns partition ip's CLV base offset.
func (l *CLVLayout) Base(ip int) int { return l.base[ip] }

// CatStride returns the offset between consecutive categories of partition
// ip: one aligned plane.
func (l *CLVLayout) CatStride(ip int) int { return l.catStride[ip] }

// Index returns the offset of (partition ip, local pattern j, category c,
// state 0); state a lives at Index(ip, j, c) + a.
func (l *CLVLayout) Index(ip, j, c int) int {
	return l.base[ip] + c*l.catStride[ip] + j*l.states[ip]
}

// SumIndex returns the sumtable offset of (partition ip, local pattern j,
// category 0, state 0); the pattern's cats·s block is contiguous from there.
func (l *CLVLayout) SumIndex(ip, j int) int {
	return l.sumBase[ip] + j*l.cats*l.states[ip]
}

// memoryBytes is what the descriptor's per-partition tables hold.
func (l *CLVLayout) memoryBytes() int64 {
	return 8 * int64(len(l.base)+len(l.catStride)+len(l.states)+len(l.sumBase))
}
