package core

import "phylo/internal/cpufeat"

// vectorPlanes is whether newviewFused4 runs its category-plane loops as the
// AVX kernels of fused4_amd64.s: decided once, from CPUID and XCR0, and
// flipped only by tests (the scalar loops stay the realisation everywhere
// else, and the reference the kernels are tested against).
var vectorPlanes = cpufeat.AVX

//go:noescape
func innerPlaneAVX(d, xa, xb, pa, pb []float64, small []bool, j0, n, step int, first bool)

//go:noescape
func tipInnerPlaneAVX(d, x, tab []float64, row []byte, p []float64, small []bool, j0, n, step, cs int, first bool) int

//go:noescape
func tipTipPlaneAVX(d, ta, tb []float64, ra, rb []byte, small []bool, j0, n, step, cs int, first bool) int

// The plane calls of newviewFused4. Each runs patterns j0, j0+step, … (n of
// them) of one category plane and returns how many it computed, from the
// front: all n; or 0 when the vector planes are off or the run does not fit
// the slices, so the scalar loop takes the plane and panics where it always
// has; or, with a table, as many as precede the first tip code whose row the
// table does not hold. Every index but a table row's is checked here, once,
// by the run's last pattern (end is one past it); the kernels check the rows.

// planeEnd is one past the last pattern of the run, or 0 when the vector
// planes do not take it.
//
//plk:hotpath
func planeEnd(small []bool, j0, n, step int) int {
	end := j0 + (n-1)*step + 1
	if !vectorPlanes || n < 1 || j0 < 0 || step < 1 || end > len(small) {
		return 0
	}
	return end
}

//plk:hotpath
func planeInner(d, xa, xb, pa, pb []float64, small []bool, j0, n, step int, first bool) int {
	end := planeEnd(small, j0, n, step)
	if end == 0 || 4*end > min(len(d), len(xa), len(xb)) || len(pa) < 16 || len(pb) < 16 {
		return 0
	}
	innerPlaneAVX(d, xa, xb, pa, pb, small, j0, n, step, first)
	return n
}

//plk:hotpath
func planeTipInner(d, x, tab []float64, row []byte, p []float64, small []bool, j0, n, step, cs, to int, first bool) int {
	end := planeEnd(small, j0, n, step)
	if end == 0 || 4*end > min(len(d), len(x)) || end > len(row) || len(p) < 16 || cs < 0 || to < 0 || to > len(tab) {
		return 0
	}
	return tipInnerPlaneAVX(d, x, tab[to:], row, p, small, j0, n, step, cs, first)
}

//plk:hotpath
func planeTipTip(d, ta, tb []float64, ra, rb []byte, small []bool, j0, n, step, cs, to int, first bool) int {
	end := planeEnd(small, j0, n, step)
	if end == 0 || 4*end > len(d) || end > min(len(ra), len(rb)) || cs < 0 || to < 0 || to > min(len(ta), len(tb)) {
		return 0
	}
	return tipTipPlaneAVX(d, ta[to:], tb[to:], ra, rb, small, j0, n, step, cs, first)
}
