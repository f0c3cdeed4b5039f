//go:build !amd64

package model

// Without an assembly realisation ApplyCols runs its scalar loop.
func applyColsVec(dst, mT, x []float64) bool { return false }
