package core

import "phylo/internal/alignment"

// Tip-case lookup tables (the RAxML tip-case trick): a tip child never
// carries per-category likelihoods — only one of 16 DNA / 23 AA tip codes —
// so the P-matrix application that the kernels would repeat for every
// pattern,
//
//	sum_b P_c[a][b] · tipvec(code)[b],
//
// takes only codes×cats×s distinct values per transition matrix. Each kernel
// precomputes them once per (step, partition, worker) into per-worker
// scratch and replaces the per-pattern O(cats·s²) child work by an
// O(cats·s) table-row read. The tables accumulate in exactly the same
// b-ascending order as the generic kernels, so specialized and generic
// results are bit-for-bit identical.
//
// The tables keep their own code-major geometry — row (code·cats + c)·s —
// under every kernel backend: rows are indexed by tip code, not pattern, so
// the CLV layout does not apply to them. Both the pattern-major generic
// bodies and the cat-major fused bodies read the same rows (the fused
// kernels at a per-category offset of cat·s within the row), which is what
// lets one build serve both and keeps tip specialization orthogonal to the
// backend choice. The per-worker table scratch is cache-line-aligned like
// every other hot buffer (see alignedFloats).

// tipTableMinPatterns is the minimum per-worker pattern share for which
// building a lookup table beats per-pattern tip-vector expansion: the build
// costs codes·cats·s² multiply-adds while every pattern saves ~cats·s(s-1),
// so break-even sits near the code count; the factor 2 also covers the
// table's cache footprint. Shares below it keep the generic path (results
// are identical either way).
func tipTableMinPatterns(t alignment.DataType) int {
	return 2 * alignment.NumCodes(t)
}

// buildTipTable fills dst with the per-code P application table
// dst[(code·cats+c)·s + a] = sum_b pm_c[a][b] · tipvec(code)[b] and returns
// the used prefix. pm is the cats×s×s transition-matrix block of one child
// branch.
func buildTipTable(dst []float64, t alignment.DataType, pm []float64, s, cats int) []float64 {
	codes := alignment.NumCodes(t)
	ss := s * s
	for code := 0; code < codes; code++ {
		tv := alignment.TipVector(t, byte(code))
		for c := 0; c < cats; c++ {
			p := pm[c*ss : (c+1)*ss]
			d := dst[(code*cats+c)*s : (code*cats+c+1)*s]
			for a := 0; a < s; a++ {
				row := a * s
				sum := 0.0
				for b := 0; b < s; b++ {
					sum += p[row+b] * tv[b]
				}
				d[a] = sum
			}
		}
	}
	return dst[:codes*cats*s]
}

// buildTipSumLeft fills dst with the category-independent left sumtable
// projection dst[code·s + k] = sum_a freqs[a] · tipvec(code)[a] · v[a][k]
// (tip vectors carry no category dimension, so one row serves all
// categories).
func buildTipSumLeft(dst []float64, t alignment.DataType, freqs, v []float64, s int) []float64 {
	codes := alignment.NumCodes(t)
	for code := 0; code < codes; code++ {
		tv := alignment.TipVector(t, byte(code))
		d := dst[code*s : (code+1)*s]
		for k := 0; k < s; k++ {
			sum := 0.0
			for a := 0; a < s; a++ {
				sum += freqs[a] * tv[a] * v[a*s+k]
			}
			d[k] = sum
		}
	}
	return dst[:codes*s]
}

// buildTipSumRight fills dst with the category-independent right sumtable
// projection dst[code·s + k] = sum_a vi[k][a] · tipvec(code)[a].
func buildTipSumRight(dst []float64, t alignment.DataType, vi []float64, s int) []float64 {
	codes := alignment.NumCodes(t)
	for code := 0; code < codes; code++ {
		tv := alignment.TipVector(t, byte(code))
		d := dst[code*s : (code+1)*s]
		for k := 0; k < s; k++ {
			sum := 0.0
			for a := 0; a < s; a++ {
				sum += vi[k*s+a] * tv[a]
			}
			d[k] = sum
		}
	}
	return dst[:codes*s]
}
