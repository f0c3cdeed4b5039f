package core

import (
	"math/bits"

	"phylo/internal/alignment"
)

// Tip-case lookup tables (the RAxML tip-case trick): a tip child never
// carries per-category likelihoods — only one of 16 DNA / 23 AA tip codes —
// so the P-matrix application that the kernels would repeat for every
// pattern,
//
//	sum_b P_c[a][b] · tipvec(code)[b],
//
// takes at most codes×cats×s distinct values per transition matrix. Each kernel
// precomputes them once per (step, partition, worker) into per-worker
// scratch and replaces the per-pattern O(cats·s²) child work by an
// O(cats·s) table-row read. The tables hold exactly the values the generic
// kernels compute, so specialized and generic results are bit-for-bit
// identical.
//
// A table is gathered, not multiplied out. A tip vector is 0/1, so the dense
// sum adds, b ascending from +0, P[a][b]·1 = P[a][b] for every state the code
// allows (alignment.TipStates) and P[a][b]·0 for every other. P entries are
// finite and neither negative nor -0 (model.PMatrix clamps, and its own sums
// start at +0), so the other terms are +0 and the dense sum IS the sum of the
// allowed states' entries, ascending from +0 — for an unambiguous code one
// column of P. In the sumtable projections a skipped term is ±0 (eigenvector
// entries are signed), which changes nothing either: a running sum that
// started at +0 is never -0 (only -0 + -0 is), and x + ±0 = x for any other
// x. So every builder starts each sum at 0.0 and adds the allowed states in
// ascending order.
//
// The tables keep their own code-major geometry — row (code·cats + c)·s —
// under every kernel backend: rows are indexed by tip code, not pattern, so
// the CLV layout does not apply to them. The generic bodies and the fused
// bodies read the same rows (the fused kernels at a per-category offset of
// cat·s within the row), which is what lets one build serve both and keeps
// tip specialization orthogonal to the backend choice. The per-worker table scratch is cache-line-aligned like
// every other hot buffer (see alignedFloats).
//
// Only the rows a span can read are built. A table row is addressed by the
// tip code Tips[taxon][j] of the span's own taxon, and
// CompressedPartition.Codes[taxon] lists exactly the codes that row of Tips
// holds — typically 4-5 of the 16 DNA codes — so every builder takes that
// list and leaves the other rows of the code-indexed scratch untouched (stale
// or never written): no pattern of the span can index them.

// tipTablesAmortize is the one table decision of every kernel: a worker's
// pattern share of the span pays for lookup tables of the given tip children
// (nil codes for an inner child). A table row costs up to cats·s² adds to
// build (every state allowed; cats·s for an unambiguous code) and saves
// ~cats·s(s-1) per pattern that reads it, so break-even sits at or below one
// pattern per row; the factor 2 also covers the table's cache footprint. The
// wider child decides for both, so a span builds all its tables or none
// (results are identical either way).
func tipTablesAmortize(share int, codesA, codesB []byte) bool {
	return share >= 2*max(len(codesA), len(codesB))
}

// tipSetStates is the number of terms a gathered table row sums, totalled over
// the given codes: what opsTipTable and opsTipProj price.
func tipSetStates(t alignment.DataType, codes []byte) int {
	n := 0
	for _, code := range codes {
		n += len(alignment.TipStates(t, code))
	}
	return n
}

// buildTipTable fills the rows of the present codes of the per-code P
// application table dst[(code·cats+c)·s + a] = sum_b pm_c[a][b] ·
// tipvec(code)[b] and returns the whole code-indexed table. pm is one child
// branch's cats×s×s transition-matrix block, in model.PMatrices' layout.
//
//plk:hotpath
func buildTipTable(dst []float64, t alignment.DataType, codes []byte, pm []float64, s, cats int) []float64 {
	if s == 4 {
		buildTipTable4(dst, codes, pm, cats)
	} else {
		gatherTipTable(dst, t, codes, pm, s, cats)
	}
	return dst[:alignment.NumCodes(t)*cats*s]
}

// buildTipTable4 is the gather written out for four states. A DNA code is the
// bit mask of the states it allows (alignment.DNATipVectors), so the row of an
// unambiguous code is one column of P_c, each entry 0 + P_c[a][b], and an
// ambiguous code's four running sums add the allowed columns in ascending
// order from +0: the gather's sums, term for term.
//
//plk:hotpath
func buildTipTable4(dst []float64, codes []byte, pm []float64, cats int) {
	for _, code := range codes {
		row, blk := dst[int(code)*cats*4:(int(code)+1)*cats*4], pm
		for ; len(row) >= 4 && len(blk) >= 16; row, blk = row[4:], blk[16:] {
			p, d := (*[16]float64)(blk), (*[4]float64)(row)
			if b := bits.TrailingZeros8(code) & 3; code == 1<<b {
				d[0], d[1], d[2], d[3] = 0+p[b], 0+p[4+b], 0+p[8+b], 0+p[12+b]
				continue
			}
			var s0, s1, s2, s3 float64
			for b := range 4 {
				if code>>b&1 != 0 {
					s0, s1, s2, s3 = s0+p[b], s1+p[4+b], s2+p[8+b], s3+p[12+b]
				}
			}
			d[0], d[1], d[2], d[3] = s0, s1, s2, s3
		}
	}
}

// gatherTipTable is buildTipTable for the column-major blocks of the wider
// alphabets (model.PMatrices): entry c·s + a sums P_c[a][b] over the allowed
// states b, and column b of P_c is row b of its block, so a table row is the
// sum of whole block rows, each added entry by entry from +0 in ascending b:
// the gather's sums term for term, over contiguous entries.
//
//plk:hotpath
func gatherTipTable(dst []float64, t alignment.DataType, codes []byte, pm []float64, s, cats int) {
	for _, code := range codes {
		set := alignment.TipStates(t, code)
		d, blk := dst[int(code)*cats*s:(int(code)+1)*cats*s], pm
		for ; len(d) >= s; d, blk = d[s:], blk[s*s:] {
			row := d[:s]
			clear(row)
			for _, b := range set {
				col := blk[int(b)*s:][:s]
				for k := range row {
					row[k] += col[k]
				}
			}
		}
	}
}

// buildTipSumLeft fills the present-code rows of the category-independent
// left sumtable projection dst[code·s + k] = sum_a freqs[a] · tipvec(code)[a]
// · v[a][k] (tip vectors carry no category dimension, so one row serves all
// categories).
//
//plk:hotpath
func buildTipSumLeft(dst []float64, t alignment.DataType, codes []byte, freqs, v []float64, s int) []float64 {
	for _, code := range codes {
		set := alignment.TipStates(t, code)
		lo := int(code) * s
		d := dst[lo : lo+s]
		for k := range d {
			sum := 0.0
			for _, a := range set {
				sum += freqs[a] * v[int(a)*s+k]
			}
			d[k] = sum
		}
	}
	return dst[:alignment.NumCodes(t)*s]
}

// buildTipSumRight fills the present-code rows of the category-independent
// right sumtable projection dst[code·s + k] = sum_a vi[k][a] ·
// tipvec(code)[a] from viT, V^-1 transposed: gatherTipTable's row of one
// category, the sum of the allowed rows of viT.
func buildTipSumRight(dst []float64, t alignment.DataType, codes []byte, viT []float64, s int) []float64 {
	gatherTipTable(dst, t, codes, viT, s, 1)
	return dst[:alignment.NumCodes(t)*s]
}
