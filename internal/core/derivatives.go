package core

import (
	"phylo/internal/alignment"
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
// contiguous cats·s block at a time). Every backend routes here today; the
// eigenbasis projections accumulate in state-ascending order in any case.
//
//plk:hotpath
func (c *spanCtx) sumtableGeneric(run schedule.Run) int {
	s := c.s
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
			var cl, cr []float64
			if lRow == nil {
				cl = xl
				if !c.a.tip {
					cl = c.a.v[co : co+s]
				}
			}
			if rRow == nil {
				cr = xr
				if !c.b.tip {
					cr = c.b.v[co : co+s]
				}
			}
			dst := c.sum[soff+cat*s : soff+(cat+1)*s]
			for k := 0; k < s; k++ {
				var lproj, rproj float64
				if lRow != nil {
					lproj = lRow[k]
				} else {
					for a := 0; a < s; a++ {
						lproj += c.freqs[a] * cl[a] * c.ev[a*s+k]
					}
				}
				if rRow != nil {
					rproj = rRow[k]
				} else {
					for a := 0; a < s; a++ {
						rproj += c.evi[k*s+a] * cr[a]
					}
				}
				dst[k] = lproj * rproj * c.invCats
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
// likelihood and its two derivative dot products run once, and the resulting
// first-derivative ratio and curvature terms accumulate under all R replicate
// weights into out[2r], out[2r+1], in ascending pattern order within the run.
//
//plk:hotpath
func (c *spanCtx) derivativeGeneric(run schedule.Run, out []float64) int {
	cs := c.cs
	R := c.R
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		soff := c.sbase + j*cs
		l, l1, l2 := 0.0, 0.0, 0.0
		for k := 0; k < cs; k++ {
			a := c.sum[soff+k] * c.eTab[k]
			l += a
			l1 += a * c.g1Tab[k]
			l2 += a * c.g2Tab[k]
		}
		// The cs-length dot products above already ran, so the pattern is
		// charged whether or not the guard below accepts its contribution;
		// skipped patterns must not undercount the region's performed work.
		count++
		if l < 1e-300 {
			// Scaled likelihood vanished; the pattern cannot inform this
			// branch numerically under any replicate. Skip it (RAxML guards
			// identically).
			continue
		}
		inv := 1 / l
		r1 := l1 * inv
		curv := l2*inv - r1*r1
		wj := c.lw[j*R : (j+1)*R]
		for r := 0; r < R; r++ {
			out[2*r] += wj[r] * r1
			out[2*r+1] += wj[r] * curv
		}
	}
	return count
}
