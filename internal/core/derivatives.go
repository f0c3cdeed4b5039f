package core

import (
	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// PrepareSumtable projects the CLVs at both ends of branch (p, p.Back) into
// the eigenbasis and stores, per pattern/category/eigenindex k,
//
//	A[k] = (sum_s pi_s L_s V_{sk}) * (sum_s' Vinv_{ks'} R_s') / numCats
//
// so that the per-site likelihood along the branch becomes the exponential
// sum l_i(z) = sum_{c,k} A_i[c,k] exp(lambda_k r_c z). One sumtable prepares
// an arbitrary number of cheap Newton-Raphson derivative iterations for the
// same branch — the sumtable region runs once per branch, the derivative
// regions once per Newton iteration. Both end CLVs must be valid (use
// TraverseRoot first). Sumtable writes are per-pattern disjoint, so the
// region needs no reduction. A tip end whose owner's share amortizes a
// projection table uses the category-independent per-code rows of
// buildTipSumLeft/Right instead of re-projecting the same 0/1 tip vector for
// every pattern and category (tip-case specialization; results are
// bit-identical).
func (e *Engine) PrepareSumtable(p *tree.Node, active []bool) {
	if e.sumtable == nil {
		// Evaluate-only sessions never get here: the first holder of the
		// buffer set that smooths a branch makes the sumtable, in the set.
		e.sumtable = alignedFloats(e.layout.SumTotal())
	}
	e.runRegion(region{kind: parallel.RegionSumTable, p: p}, e.activeOrAll(active))
}

// sumtableGeneric is the layout-aware generic sumtable body: CLV reads go
// through the layout strides, while the sumtable keeps the pattern-major
// geometry under every backend (the derivative kernel reduces one pattern's
// contiguous cats·s block at a time). Every backend routes here today. An end
// without a table row pays one model.ApplyCols per category — the left one
// applies V^T, which ApplyCols reads as V itself, to fl[a] = freqs[a]·cl[a],
// formed once; the right one applies V^-1, read as InvVecsT — and both
// projections accumulate in state-ascending order in any case.
//
//plk:hotpath
func (c *spanCtx) sumtableGeneric(run schedule.Run) int {
	s := c.s
	fl, rp := c.fl, c.tmp
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		off := c.base + j*c.patStride
		soff := c.sbase + j*c.cs
		var xl, xr []float64
		var lRow, rRow []float64
		if c.a.tab != nil {
			code := int(c.a.row[j])
			lRow = c.a.tab[code*s : (code+1)*s]
		} else if c.a.tip {
			xl = alignment.TipVector(c.dtype, c.a.row[j])
		}
		if c.b.tab != nil {
			code := int(c.b.row[j])
			rRow = c.b.tab[code*s : (code+1)*s]
		} else if c.b.tip {
			xr = alignment.TipVector(c.dtype, c.b.row[j])
		}
		for cat := 0; cat < c.cats; cat++ {
			co := off + cat*c.catStride
			dst := c.sum[soff+cat*s : soff+(cat+1)*s]
			lproj, rproj := lRow, rRow
			if lRow == nil {
				cl := xl
				if !c.a.tip {
					cl = c.a.v[co : co+s]
				}
				for a := range fl {
					fl[a] = c.freqs[a] * cl[a]
				}
				model.ApplyCols(dst, c.ev, fl)
				lproj = dst
			}
			if rRow == nil {
				cr := xr
				if !c.b.tip {
					cr = c.b.v[co : co+s]
				}
				model.ApplyCols(rp, c.eviT, cr)
				rproj = rp
			}
			for k := range dst {
				dst[k] = lproj[k] * rproj[k] * c.invCats
			}
		}
		count++
	}
	return count
}

// BranchDerivatives evaluates d lnL / dz and d^2 lnL / dz^2 for the branch
// whose sumtable was last prepared, at per-partition branch lengths z (z is
// indexed by partition; with a joint estimate pass the same value in every
// active entry). Results are written into d1 and d2 (length NumPartitions);
// masked partitions are zeroed. One parallel region per call — this is the
// unit of synchronization the paper counts per Newton iteration — and the
// width-1 case of derivativeLanes over the dataset's own weights (or the
// session's override).
func (e *Engine) BranchDerivatives(z []float64, active []bool, d1, d2 []float64) {
	e.derivativeLanes(z, e.activeOrAll(active), e.ownWeights(), d1, d2)
}

// derivativeLanes is the derivative region: per pattern the likelihood and its
// two derivative dot products over the sumtable run once and the resulting
// terms accumulate under all R replicate weights of ws into per-(chunk, lane)
// partials, reduced master-side in fixed chunk-id order into d1 and d2 (both
// indexed [partition*R + replicate]).
func (e *Engine) derivativeLanes(z []float64, act []bool, ws *WeightSet, d1, d2 []float64) {
	lay := e.stealRT.Layout()
	R := ws.r
	n := lay.NumChunks()
	buf := chunkPartials(&e.derivChunk, 2*n*R)
	e.runRegion(region{kind: parallel.RegionDerivative, z: z, ws: ws, out: buf, lanes: 2 * R}, act)
	clear(d1)
	clear(d2)
	for id := 0; id < n; id++ {
		sp := lay.Chunk(id).Span
		for r := 0; r < R; r++ {
			d1[sp*R+r] += buf[id*2*R+2*r]
			d2[sp*R+r] += buf[id*2*R+2*r+1]
		}
	}
}

// derivativeGeneric is the derivative body shared by every backend: it reads
// only the sumtable, which is pattern-major under all of them. Per pattern the
// likelihood and its two derivative dot products run once — two patterns a
// pass, so six sums are in flight instead of three, each in its own k-ascending
// order — and the resulting first-derivative ratio and curvature terms
// accumulate under all R replicate weights into out[2r], out[2r+1], in
// ascending pattern order within the run.
//
//plk:hotpath
func (c *spanCtx) derivativeGeneric(run schedule.Run, out []float64) int {
	cs := c.cs
	eT, g1, g2 := c.eTab[:cs], c.g1Tab[:cs], c.g2Tab[:cs]
	count := 0
	for i := run.Lo; i < run.Hi; i += 2 * run.Step {
		j := i - c.partOffset
		sa := c.sum[c.sbase+j*cs:][:cs]
		sb, paired := sa, i+run.Step < run.Hi // an odd tail runs against itself and keeps one result
		if paired {
			sb = c.sum[c.sbase+(j+run.Step)*cs:][:cs]
		}
		var la, la1, la2, lb, lb1, lb2 float64
		for k, ek := range eT {
			a, b := sa[k]*ek, sb[k]*ek
			la += a
			la1 += a * g1[k]
			la2 += a * g2[k]
			lb += b
			lb1 += b * g1[k]
			lb2 += b * g2[k]
		}
		// The cs-length dot products ran, so a pattern is charged whether or
		// not derivativeTerms' guard accepts its contribution; skipped
		// patterns must not undercount the region's performed work.
		c.derivativeTerms(j, la, la1, la2, out)
		count++
		if paired {
			c.derivativeTerms(j+run.Step, lb, lb1, lb2, out)
			count++
		}
	}
	return count
}

// derivativeTerms folds pattern j's likelihood l and derivative sums l1, l2
// into out under the partition's R replicate weights.
//
//plk:hotpath
func (c *spanCtx) derivativeTerms(j int, l, l1, l2 float64, out []float64) {
	if l < 1e-300 {
		// Scaled likelihood vanished; the pattern cannot inform this branch
		// numerically under any replicate. Skip it (RAxML guards identically).
		return
	}
	inv := 1 / l
	r1 := l1 * inv
	curv := l2*inv - r1*r1
	wj := c.lw[j*c.R : (j+1)*c.R]
	for r, w := range wj {
		out[2*r] += w * r1
		out[2*r+1] += w * curv
	}
}
