package core

import (
	"math"

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
	q := p.Back
	act := e.activeOrAll(active)
	if e.sumtable == nil {
		// Evaluate-only sessions never get here: the first holder of the
		// buffer set that smooths a branch makes the sumtable, in the set.
		e.sumtable = alignedFloats(e.layout.SumTotal())
	}
	rt := e.stealRT
	rt.Load(act)
	e.Exec.Run(parallel.RegionSumTable, func(w int, ctx *parallel.WorkerCtx) {
		ops := 0.0
		var c sumSpanCtx
		cached := -1
		for {
			id := rt.Next(w, ctx)
			if id < 0 {
				break
			}
			ch := rt.Layout().Chunk(id)
			if ch.Span != cached {
				e.prepareSumtableSpan(&c, p, q, ch.Span, w)
				cached = ch.Span
			}
			c.ensureTables(ch.Share)
			ops += c.takeOps(c.kern.Sumtable(&c, ch.Run()))
		}
		ctx.Ops += ops
	})
	rt.Finish()
}

// sumSpanCtx is the per-(branch, partition, worker) sumtable setup — the
// eigenbasis views of both branch ends and the optional category-independent
// tip projection tables (see nvSpanCtx).
type sumSpanCtx struct {
	e          *Engine
	ip, w      int
	s, cats    int
	cs         int
	base       int
	patStride  int       // CLV layout: offset between consecutive patterns
	catStride  int       // CLV layout: offset between consecutive categories
	sum        []float64 // the session's sumtable
	sbase      int       // sumtable base (the sumtable is always pattern-major)
	partOffset int
	dtype      alignment.DataType
	invCats    float64
	pTip, qTip bool
	pv, qv     []float64
	pRow, qRow []byte
	pCodes     []byte // codes present in pRow/qRow, ascending (nil for an inner end)
	qCodes     []byte
	v, vi      []float64
	freqs      []float64
	lTab, rTab []float64
	kern       KernelBackend
	fixed      float64
}

// prepareSumtableSpan binds c to (branch, partition, worker).
func (e *Engine) prepareSumtableSpan(c *sumSpanCtx, p, q *tree.Node, ip, w int) {
	part := e.Data.Parts[ip]
	s := part.Type.States()
	m := e.Models[ip]
	*c = sumSpanCtx{
		e: e, ip: ip, w: w, s: s, cats: e.numCats, cs: e.numCats * s,
		base: e.layout.Base(ip), patStride: e.layout.PatStride(ip), catStride: e.layout.CatStride(ip),
		sum: e.sumtable, sbase: e.layout.SumIndex(ip, 0), partOffset: part.Offset,
		dtype: part.Type, invCats: 1.0 / float64(e.numCats),
		pTip: p.IsTip(), qTip: q.IsTip(),
		v: m.EigenVecs, vi: m.InvVecs, freqs: m.Freqs,
		kern: e.kernels[ip],
	}
	if c.pTip {
		c.pRow, c.pCodes = part.Tips[p.Index], part.Codes[p.Index]
	} else {
		c.pv = e.clv(p.Index)
	}
	if c.qTip {
		c.qRow, c.qCodes = part.Tips[q.Index], part.Codes[q.Index]
	} else {
		c.qv = e.clv(q.Index)
	}
}

// ensureTables builds the tip projection tables when a share of this many
// patterns amortizes them (see nvSpanCtx.ensureTables).
func (c *sumSpanCtx) ensureTables(patterns int) {
	e := c.e
	if !e.Specialize || !(c.pTip || c.qTip) || !tipTablesAmortize(patterns, c.pCodes, c.qCodes) {
		return
	}
	if c.pTip && c.lTab == nil {
		c.lTab = buildTipSumLeft(e.tipScratch[c.w][0], c.dtype, c.pCodes, c.freqs, c.v, c.s)
		c.fixed += opsTipProj(c.s, len(c.pCodes))
	}
	if c.qTip && c.rTab == nil {
		c.rTab = buildTipSumRight(e.tipScratch[c.w][1], c.dtype, c.qCodes, c.vi, c.s)
		c.fixed += opsTipProj(c.s, len(c.qCodes))
	}
}

// takeOps prices count processed patterns and claims the setup charge.
func (c *sumSpanCtx) takeOps(count int) float64 {
	ops := float64(count)*opsSumtableCase(c.s, c.cats, c.lTab != nil, c.rTab != nil) + c.fixed
	c.fixed = 0
	return ops
}

// processGeneric is the layout-aware generic sumtable body: CLV reads go
// through the layout strides, while the sumtable keeps the pattern-major
// geometry under every backend (the derivative kernel reduces one pattern's
// contiguous cats·s block at a time). Every backend routes here today; the
// eigenbasis projections accumulate in state-ascending order in any case.
//
//plk:hotpath
func (c *sumSpanCtx) processGeneric(run schedule.Run) int {
	s := c.s
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		off := c.base + j*c.patStride
		soff := c.sbase + j*c.cs
		var xl, xr []float64
		var lRow, rRow []float64
		if c.lTab != nil {
			code := int(c.pRow[j])
			lRow = c.lTab[code*s : (code+1)*s]
		} else if c.pTip {
			xl = alignment.TipVector(c.dtype, c.pRow[j])
		}
		if c.rTab != nil {
			code := int(c.qRow[j])
			rRow = c.rTab[code*s : (code+1)*s]
		} else if c.qTip {
			xr = alignment.TipVector(c.dtype, c.qRow[j])
		}
		for cat := 0; cat < c.cats; cat++ {
			co := off + cat*c.catStride
			var cl, cr []float64
			if lRow == nil {
				cl = xl
				if !c.pTip {
					cl = c.pv[co : co+s]
				}
			}
			if rRow == nil {
				cr = xr
				if !c.qTip {
					cr = c.qv[co : co+s]
				}
			}
			dst := c.sum[soff+cat*s : soff+(cat+1)*s]
			for k := 0; k < s; k++ {
				var lproj, rproj float64
				if lRow != nil {
					lproj = lRow[k]
				} else {
					for a := 0; a < s; a++ {
						lproj += c.freqs[a] * cl[a] * c.v[a*s+k]
					}
				}
				if rRow != nil {
					rproj = rRow[k]
				} else {
					for a := 0; a < s; a++ {
						rproj += c.vi[k*s+a] * cr[a]
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

// derivativeLanes is the derivative region driver: per pattern the likelihood
// and its two derivative dot products over the sumtable run once and the
// resulting terms accumulate under all R replicate weights of ws into
// per-(chunk, lane) partials, reduced master-side in fixed chunk-id order
// into d1 and d2 (both indexed [partition*R + replicate]).
func (e *Engine) derivativeLanes(z []float64, act []bool, ws *WeightSet, d1, d2 []float64) {
	rt := e.stealRT
	R := ws.r
	n := rt.Layout().NumChunks()
	buf := chunkPartials(&e.derivChunk, 2*n*R)
	rt.Load(act)
	e.Exec.Run(parallel.RegionDerivative, func(w int, ctx *parallel.WorkerCtx) {
		ex := e.exScratch[w]
		ops := 0.0
		var c derivSpanCtx
		cached := -1
		for {
			id := rt.Next(w, ctx)
			if id < 0 {
				break
			}
			ch := rt.Layout().Chunk(id)
			if ch.Span != cached {
				e.prepareDerivSpan(&c, ch.Span, z[ch.Span], ex, ws)
				cached = ch.Span
			}
			count := c.kern.Derivatives(&c, ch.Run(), buf[id*2*R:(id+1)*2*R])
			ops += float64(count) * opsDerivative(c.s, c.cats, R)
		}
		ctx.Ops += ops
	})
	rt.Finish()
	clear(d1)
	clear(d2)
	for id := 0; id < n; id++ {
		sp := rt.Layout().Chunk(id).Span
		for r := 0; r < R; r++ {
			d1[sp*R+r] += buf[id*2*R+2*r]
			d2[sp*R+r] += buf[id*2*R+2*r+1]
		}
	}
}

// derivSpanCtx is the per-(partition, branch length, worker) derivative
// setup: the per-category exponential and derivative-factor tables over the
// worker's scratch. See nvSpanCtx.
type derivSpanCtx struct {
	e                  *Engine
	ip                 int
	s, cats, cs        int
	sum                []float64 // the session's sumtable
	sbase              int       // sumtable base (always pattern-major)
	partOffset         int
	eTab, g1Tab, g2Tab []float64
	kern               KernelBackend

	// Replicate lanes of the bound WeightSet; see evalSpanCtx.
	R  int
	lw []float64
}

// prepareDerivSpan fills the exponential tables E = exp(lambda_k r_c z) and
// the derivative factors g1 = lambda_k r_c, g2 = g1^2 into ex, and binds the
// partition's lanes of ws.
func (e *Engine) prepareDerivSpan(c *derivSpanCtx, ip int, z float64, ex []float64, ws *WeightSet) {
	part := e.Data.Parts[ip]
	s := part.Type.States()
	cats := e.numCats
	cs := cats * s
	m := e.Models[ip]
	*c = derivSpanCtx{
		e: e, ip: ip, s: s, cats: cats, cs: cs,
		sum: e.sumtable, sbase: e.layout.SumIndex(ip, 0), partOffset: part.Offset,
		eTab: ex[0:cs], g1Tab: ex[cs : 2*cs], g2Tab: ex[2*cs : 3*cs],
		kern: e.kernels[ip],
		R:    ws.r, lw: ws.lanes(part.Offset),
	}
	for cat := 0; cat < cats; cat++ {
		rc := m.CatRates[cat]
		for k := 0; k < s; k++ {
			g := m.EigenVals[k] * rc
			c.eTab[cat*s+k] = math.Exp(g * z)
			c.g1Tab[cat*s+k] = g
			c.g2Tab[cat*s+k] = g * g
		}
	}
}

// processGeneric is the derivative body shared by every backend: it reads
// only the sumtable, which is pattern-major under all of them. Per pattern the
// likelihood and its two derivative dot products run once, and the resulting
// first-derivative ratio and curvature terms accumulate under all R replicate
// weights into out[2r], out[2r+1], in ascending pattern order within the run.
//
//plk:hotpath
func (c *derivSpanCtx) processGeneric(run schedule.Run, out []float64) int {
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
