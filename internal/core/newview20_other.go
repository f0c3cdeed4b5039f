//go:build !amd64

package core

import "phylo/internal/schedule"

// Without an assembly realisation newviewGeneric's scalar loop takes every
// pattern: newviewRowsFit is false, so the kernels are never called.
func (c *spanCtx) newviewRowsFit(run schedule.Run) bool { return false }

func newviewPairAVX(dst, pa, xa, pb, xb []float64, stride, as, bs, cats int) {
	panic("core: newview rows kernel without its assembly")
}

func newviewRowAVX(dst, row, pm, x []float64, stride, cats int) {
	panic("core: newview rows kernel without its assembly")
}
