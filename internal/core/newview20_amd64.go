package core

import "phylo/internal/schedule"

// newviewPairAVX writes one pattern's CLV rows dst[cat·stride:][:20] for
// every cat < cats: (Pa_c·xa_c)·(Pb_c·xb_c) entrywise, P_c the cat-th
// 400-entry column-major block of pa or pb and x_c = x[cat·stride_x:][:20],
// stride_x = as or bs (0: a tip vector).
//
//go:noescape
func newviewPairAVX(dst, pa, xa, pb, xb []float64, stride, as, bs, cats int)

// newviewRowAVX writes dst[cat·stride:][:20] = row[cat·20:][:20]·(P_c·x_c)
// entrywise for every cat < cats, P_c the cat-th block of pm and x_c =
// x[cat·stride:][:20].
//
//go:noescape
func newviewRowAVX(dst, row, pm, x []float64, stride, cats int)

// newviewRowsFit reports whether the kernels take the run's patterns: the
// kernel is on, the partition has twenty states, and every kernel read and
// write of the run's last pattern, which reaches furthest into each CLV,
// stays inside its slice. A table row is sliced whole and a tip vector has
// twenty entries, so the per-pattern calls check nothing more.
func (c *spanCtx) newviewRowsFit(run schedule.Run) bool {
	if !NewviewRowsKernel.On() || c.s != 20 || c.cats < 1 || run.Step < 1 || run.Hi <= run.Lo {
		return false
	}
	last := run.Lo + (run.Hi-1-run.Lo)/run.Step*run.Step - c.partOffset
	reach := c.base + last*20 + (c.cats-1)*c.catStride + 20
	return c.base >= 0 && c.catStride >= 0 && reach <= len(c.dst) && c.a.rowsFit(reach, c.cats) && c.b.rowsFit(reach, c.cats)
}

// rowsFit reports whether a kernel's reads of the end stay inside its views:
// none of a table end's, every P block and an inner end's CLV up to reach.
func (e *spanEnd) rowsFit(reach, cats int) bool {
	return e.tab != nil || len(e.pm) >= cats*400 && (e.tip || len(e.v) >= reach)
}
