package model

import "phylo/internal/cpufeat"

// applyColsAVX is ApplyCols for len(dst) a positive multiple of four, len(x)
// at least one and len(mT) at least len(x)·len(dst).
//
//go:noescape
func applyColsAVX(dst, mT, x []float64)

// hostApplyCols is whether the host runs the kernel; vectorApplyCols whether
// ApplyCols does, the same but for tests (SetVectorApplyCols).
var (
	hostApplyCols   = cpufeat.AVX
	vectorApplyCols = hostApplyCols
)

// applyColsVec runs ApplyCols on the kernel, or reports false where it does
// not run or the shapes are not its own.
//
//plk:hotpath
func applyColsVec(dst, mT, x []float64) bool {
	n := len(dst)
	if !vectorApplyCols || n == 0 || n%4 != 0 || len(x) == 0 || len(mT)/n < len(x) {
		return false
	}
	applyColsAVX(dst, mT, x)
	return true
}
