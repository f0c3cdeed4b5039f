package core

import "phylo/internal/alignment"

// CLV memory layouts. The conditional likelihood vector of one inner node
// holds, per partition, patternCount × cats × states float64 entries; how
// those (pattern, cat, state) triples map onto the flat buffer is a backend
// property, described by a CLVLayout instead of the hard-coded base+j*cs
// arithmetic the seed kernels used:
//
//   - LayoutPatternMajor (the seed layout, used by the generic backend):
//     pattern j's cats×s block is contiguous,
//     idx = base + j·(cats·s) + c·s + a.
//     Good when one pattern is processed across all categories at once.
//   - LayoutCatMajor (the fused backend's layout): each category is one
//     contiguous, cache-line-aligned plane of patternCount×s entries,
//     idx = base + c·planeStride + j·s + a.
//     Within a plane, consecutive patterns' state vectors are adjacent
//     s-length lanes, so a kernel that fixes the category can hoist the
//     whole cats-slice of the transition matrix into registers and sweep
//     patterns over three linear streams (two reads, one write) — the
//     straight-line fused-multiply-add shape the 4-state DNA kernels want.
//
// Both layouts keep the state axis innermost and contiguous, so a single
// (base, patStride, catStride) triple per partition describes either one:
// idx(ip, j, c, a) = Base(ip) + j·PatStride(ip) + c·CatStride(ip) + a.
// The sumtable keeps the pattern-major geometry under every backend (the
// derivative kernel reduces one pattern's cats·s entries at a time and never
// touches CLVs), so only its partition bases differ — they are cache-line
// aligned like everything else.

// LayoutKind selects how (pattern, cat, state) triples map into the flat
// per-node CLV buffers.
type LayoutKind int

const (
	// LayoutPatternMajor is the seed geometry: one contiguous cats×s block
	// per pattern.
	LayoutPatternMajor LayoutKind = iota
	// LayoutCatMajor is the fused backend's geometry: one contiguous,
	// aligned plane of patternCount×s states per category.
	LayoutCatMajor
)

// String names the layout kind.
func (k LayoutKind) String() string {
	switch k {
	case LayoutPatternMajor:
		return "pattern-major"
	case LayoutCatMajor:
		return "cat-major"
	default:
		return "layout(?)"
	}
}

// CLVLayout maps (partition, pattern, category, state) to offsets in the
// flat per-node CLV buffers and (partition, pattern) to offsets in the
// sumtable workspace. It is immutable and shared read-only by every session
// over one Shared.
type CLVLayout struct {
	kind      LayoutKind
	cats      int
	base      []int // per partition: offset of (pattern 0, cat 0, state 0)
	patStride []int // per partition: offset between consecutive patterns
	catStride []int // per partition: offset between consecutive categories
	states    []int // per partition: s
	counts    []int // per partition: patternCount
	total     int   // CLV floats per inner node, padding included
	sumBase   []int // per partition: sumtable offset (always pattern-major)
	sumTotal  int   // sumtable floats, padding included
}

// newCLVLayout builds the layout for one dataset under the given kind.
// Partition bases — CLV and sumtable — land on 64-byte boundaries relative
// to the (aligned) buffer start, and the cat-major plane stride is rounded
// up so every category plane is aligned too.
func newCLVLayout(parts []*alignment.CompressedPartition, numCats int, kind LayoutKind) *CLVLayout {
	l := &CLVLayout{
		kind:      kind,
		cats:      numCats,
		base:      make([]int, len(parts)),
		patStride: make([]int, len(parts)),
		catStride: make([]int, len(parts)),
		states:    make([]int, len(parts)),
		counts:    make([]int, len(parts)),
		sumBase:   make([]int, len(parts)),
	}
	off, soff := 0, 0
	for i, p := range parts {
		s := p.Type.States()
		n := p.PatternCount
		l.states[i] = s
		l.counts[i] = n
		l.base[i] = off
		l.sumBase[i] = soff
		switch kind {
		case LayoutCatMajor:
			plane := alignFloats(n * s)
			l.patStride[i] = s
			l.catStride[i] = plane
			off += numCats * plane
		default:
			l.patStride[i] = numCats * s
			l.catStride[i] = s
			off += alignFloats(n * numCats * s)
		}
		soff += alignFloats(n * numCats * s)
	}
	l.total = off
	l.sumTotal = soff
	return l
}

// Kind returns the layout's geometry.
func (l *CLVLayout) Kind() LayoutKind { return l.kind }

// Total returns the CLV buffer length per inner node, padding included.
func (l *CLVLayout) Total() int { return l.total }

// SumTotal returns the sumtable workspace length, padding included.
func (l *CLVLayout) SumTotal() int { return l.sumTotal }

// Base returns partition ip's CLV base offset.
func (l *CLVLayout) Base(ip int) int { return l.base[ip] }

// PatStride returns the offset between consecutive patterns of partition ip.
func (l *CLVLayout) PatStride(ip int) int { return l.patStride[ip] }

// CatStride returns the offset between consecutive categories of partition
// ip.
func (l *CLVLayout) CatStride(ip int) int { return l.catStride[ip] }

// Index returns the offset of (partition ip, local pattern j, category c,
// state 0); state a lives at Index(ip, j, c) + a.
func (l *CLVLayout) Index(ip, j, c int) int {
	return l.base[ip] + j*l.patStride[ip] + c*l.catStride[ip]
}

// SumIndex returns the sumtable offset of (partition ip, local pattern j,
// category 0, state 0); the sumtable is pattern-major under every backend,
// so the pattern's cats·s block is contiguous from there.
func (l *CLVLayout) SumIndex(ip, j int) int {
	return l.sumBase[ip] + j*l.cats*l.states[ip]
}

// ConvertCLV copies one node's CLV contents of partition ip from a buffer in
// layout `from` into a buffer in layout `to`, entry by entry. It exists for
// the layout round-trip property tests — the engine never converts layouts
// at runtime (a Shared fixes its layout at construction).
func ConvertCLV(dst []float64, to *CLVLayout, src []float64, from *CLVLayout, ip int) {
	s := from.states[ip]
	for j := 0; j < from.counts[ip]; j++ {
		for c := 0; c < from.cats; c++ {
			fo := from.Index(ip, j, c)
			po := to.Index(ip, j, c)
			copy(dst[po:po+s], src[fo:fo+s])
		}
	}
}
