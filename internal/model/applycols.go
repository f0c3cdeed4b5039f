package model

import "phylo/internal/cpufeat"

// ApplyCols sets dst[k] = Σ_a mT[a·len(dst)+k]·x[a], the sum running a
// ascending from +0: the mat-vec M·x of the matrix M whose transpose mT is
// stored row-major (M column-major), so row a of mT is column a of M and
// consecutive outputs read consecutive entries. It is the s² loop of every
// 20-state P application (model.PMatrices' blocks, the sumtable's eigenbasis
// projections in internal/core) and of PMatrix itself. mT holds at least
// len(x)·len(dst) entries.
//
// Where ApplyColsKernel is on, and len(dst) is a whole number of quartets, it
// runs as the AVX kernel of applycols_amd64.s: one YMM register holds four
// consecutive outputs, and each step adds mT[a][k..k+3]·broadcast(x[a]) to it
// with a VMULPD and then a VADDPD (no FMA), from a VXORPD zero. Every lane
// therefore rounds exactly as the scalar sum += m·x below does, in the same
// order, and the two give the same bits (internal/core's
// TestApplyColsBitIdentity holds both to the one-row loop).
//
//plk:hotpath
func ApplyCols(dst, mT, x []float64) {
	if applyColsVec(dst, mT, x) {
		return
	}
	// Four outputs accumulate side by side, each its own a-ascending chain:
	// the kernel, lane for lane. The quartet is one full slice a step, off
	// walking down the rows of mT (as fast as a row-major loop here; indexing
	// mT[a*n+k] would cost a multiply and two checks a step).
	n, k := len(dst), 0
	for ; k+4 <= n; k += 4 {
		var s0, s1, s2, s3 float64
		off := k
		for _, xa := range x {
			c := mT[off : off+4 : off+4]
			off += n
			s0 += c[0] * xa
			s1 += c[1] * xa
			s2 += c[2] * xa
			s3 += c[3] * xa
		}
		dst[k], dst[k+1], dst[k+2], dst[k+3] = s0, s1, s2, s3
	}
	for ; k < n; k++ {
		sum := 0.0
		for a, xa := range x {
			sum += mT[a*n+k] * xa
		}
		dst[k] = sum
	}
}

// ApplyColsKernel is ApplyCols' AVX kernel, applycols_amd64.s.
var ApplyColsKernel = cpufeat.NewKernel("ApplyCols (AVX)", cpufeat.AVX)
