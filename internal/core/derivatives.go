package core

import (
	"fmt"

	"phylo/internal/alignment"
	"phylo/internal/cpufeat"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// sumtableGeneric is the one sumtable body: CLV reads step the category
// planes, while the sumtable keeps its pattern-major geometry (the
// derivative kernel reduces one pattern's contiguous cats·s block at a
// time). Every backend routes here. Where the host has the kernel
// (sumtable_amd64.s) a pattern's categories go through it in one call, both
// projections and their product in registers; elsewhere, and where it is
// off, the scalar loop below runs. There an end without a table row pays one
// model.ApplyCols per category — the left one applies V^T, which ApplyCols
// reads as V itself, to fl[a] = freqs[a]·cl[a], formed once; the right one
// applies V^-1, read as InvVecsT — and both projections accumulate in
// state-ascending order in either realisation: the same bits.
//
//plk:hotpath
func (c *spanCtx) sumtableGeneric(run schedule.Run) int {
	s := c.s
	fl, rp := c.fl, c.tmp
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		off := c.base + j*c.s
		soff := c.sumBase + j*c.cs
		dst := c.sum[soff : soff+c.cs]
		l, r := c.sideOf(&c.a, j, off), c.sideOf(&c.b, j, off)
		count++
		if c.sumtableRows(dst, l, r) {
			continue
		}
		for cat := 0; cat < c.cats; cat++ {
			d := dst[cat*s : (cat+1)*s]
			lproj, rproj := l.x, r.x
			if !l.row {
				lo := cat * l.stride
				cl := l.x[lo : lo+s]
				for a := range fl {
					fl[a] = c.freqs[a] * cl[a]
				}
				model.ApplyCols(d, c.ev, fl)
				lproj = d
			}
			if !r.row {
				lo := cat * r.stride
				model.ApplyCols(rp, c.eviT, r.x[lo:lo+s])
				rproj = rp
			}
			for k := range d {
				d[k] = lproj[k] * rproj[k] * c.invCats
			}
		}
	}
	return count
}

// SumtableKernel is the kernel sumtableGeneric runs a pattern's categories
// on, sumtable_amd64.s.
var SumtableKernel = cpufeat.NewKernel("sumtable rows (AVX)", cpufeat.AVX)

// side is what a sumtable pattern, or a newview one without tables, reads of
// one end: a projection-table row, the same for every category (row), or the
// vector x[0:s] of category 0, category c's stride·c entries on (0: a tip's).
type side struct {
	x      []float64
	stride int
	row    bool
}

// sideOf is end's side of pattern j, whose CLV entries start at off. Not
// inlined: its row and table checks stay one copy, not one a call site.
//
//go:noinline
func (c *spanCtx) sideOf(end *spanEnd, j, off int) side {
	if !end.tip {
		return side{x: end.v[off:], stride: c.catStride}
	}
	code := end.row[j]
	if end.tab == nil {
		return side{x: alignment.TipVector(c.dtype, code)}
	}
	lo := int(code) * c.s
	return side{x: end.tab[lo : lo+c.s], row: true}
}

// BranchDerivatives evaluates d lnL / dz and d^2 lnL / dz^2 for the branch
// (p, p.Back) at per-partition branch lengths z (z is indexed by partition;
// with a joint estimate pass the same value in every active entry), under
// the R replicate weight vectors of ws (nil: the dataset's own weights, R =
// 1). One parallel region per call — this is the unit of synchronization the
// paper counts per Newton iteration. It runs the partial traversal that
// validates both end CLVs, over every partition; then, unless p's sumtable is
// current, the sumtable pass, over every partition too; then the derivative
// pass over the active ones. The sumtable projects the CLVs at both ends into
// the eigenbasis and stores, per pattern/category/eigenindex k,
//
//	A[k] = (sum_s pi_s L_s V_{sk}) * (sum_s' Vinv_{ks'} R_s') / numCats
//
// so that the per-site likelihood along the branch becomes the exponential
// sum l_i(z) = sum_{c,k} A_i[c,k] exp(lambda_k r_c z): it depends on the two
// end CLVs and the models alone, not on z or the weights, so it is current
// exactly when the last projection was p's and no newview step has run since
// (rootSteps forgets it when it lists one). The rule keys on the record, not
// the branch: the projection is oriented, p's end on the left. Per pattern
// the derivative pass runs the likelihood and its two derivative dot products
// over the sumtable once and accumulates the resulting terms under all R
// weights into per-(chunk, lane) partials, reduced master-side in fixed
// chunk-id order into d1 and d2, indexed [partition*R + replicate]; masked
// partitions are zeroed. lnl (R entries), nil in every Newton step, adds the
// lnL lane: the same pass also turns each pattern's likelihood l_i(z) into
// its site log likelihood (both ends' scaling exponents, SiteLogs) and
// reduces those as Evaluate does, into each replicate's total over the active
// partitions — the score of the branch at z without forming or applying a P
// matrix. The lane's bits are not Evaluate's (DESIGN.md "Region execution").
// d1 and d2 are caller-owned and may be nil together, as may lnl.
func (e *Engine) BranchDerivatives(p *tree.Node, z []float64, active []bool, ws *WeightSet, d1, d2, lnl []float64) {
	ws = e.weights(ws)
	R, np := ws.r, len(e.Data.Parts)
	if (d1 == nil) != (d2 == nil) || d1 != nil && (len(d1) != np*R || len(d2) != np*R) || lnl != nil && len(lnl) != R {
		panic(fmt.Sprintf("core: derivative buffers have %d/%d/%d entries, want %d/%d/%d (partitions x replicates twice, replicates)", len(d1), len(d2), len(lnl), np*R, np*R, R))
	}
	if e.sumtable == nil {
		// Evaluate-only sessions never get here: the first holder of the
		// buffer set that smooths a branch makes the sumtable, in the set.
		e.sumtable = alignedFloats(e.layout.SumTotal())
	}
	rg := region{kind: parallel.RegionDerivative, steps: e.rootSteps(p, e.shared.allMask), stepAct: e.shared.allMask, p: p, z: z, ws: ws, lanes: 2 * R}
	rg.sum, e.sumAt = e.sumAt != p, p
	if lnl != nil {
		rg.lanes = 3 * R
	}
	lay := e.chunks
	n := lay.NumChunks()
	buf := grow(&e.derivChunk, n*rg.lanes)
	rg.out = buf
	e.runRegion(rg, active)
	if d1 != nil {
		clear(d1)
		clear(d2)
		for id := 0; id < n; id++ {
			sp := lay.Chunk(id).Span
			for r := 0; r < R; r++ {
				d1[sp*R+r] += buf[id*rg.lanes+2*r]
				d2[sp*R+r] += buf[id*rg.lanes+2*r+1]
			}
		}
	}
	if lnl != nil {
		per := grow(&e.lanes, np*R)
		e.reduce(buf, rg.lanes, 2*R, R, per)
		e.total(e.activeOrAll(active), per, lnl)
	}
}

// derivativeRun is the derivative pass over one run: derivativeGeneric, and
// with the lnL lane on, siteBlock patterns at a time, their likelihoods
// (which note records) through the evaluate bodies' site pass, accumulated
// into out[2R+r] under replicate r's weight in ascending pattern order.
//
//plk:hotpath
func (c *spanCtx) derivativeRun(run schedule.Run, out []float64) int {
	if !c.score {
		return c.derivativeGeneric(run, out)
	}
	count, step, lane := 0, run.Step, out[2*c.R:3*c.R]
	for lo := run.Lo; lo < run.Hi; lo += siteBlock * step {
		c.nl = 0
		count += c.derivativeGeneric(schedule.Run{Lo: lo, Hi: min(run.Hi, lo+siteBlock*step), Step: step}, out)
		v := c.ls[:c.nl]
		c.sites(v, lo, step, 1) // the sumtable's terms carry 1/numCats already
		c.weigh(v, lo-c.partOffset, step, lane)
	}
	return count
}

// derivativeGeneric is the derivative body shared by every backend: it reads
// only the sumtable, which is pattern-major. Per pattern the likelihood and
// its two derivative dot products run once, each in its own k-ascending
// order from +0, and the resulting first-derivative ratio and curvature terms
// accumulate under all R replicate weights into out[2r], out[2r+1], in
// ascending pattern order within the run. Where the host has the kernel
// (derivative_amd64.s) whole quartets of the run's patterns go four lanes a
// pass, two quartets in flight, a block of them a call; the patterns after
// the last whole quartet, and every pattern elsewhere, take the scalar loop:
// two patterns a pass, so six sums are in flight instead of three. Each sum
// is the same chain of roundings in either: the same bits.
//
//plk:hotpath
func (c *spanCtx) derivativeGeneric(run schedule.Run, out []float64) int {
	cs := c.cs
	eT, g1, g2 := c.eTab[:cs], c.g1Tab[:cs], c.g2Tab[:cs]
	count := 0
	i := run.Lo
	for i < run.Hi {
		q := min((run.Hi-i+run.Step-1)/run.Step/4, len(c.sums)/12)
		qs := c.sums[:12*q]
		if q == 0 || !derivQuartets(qs, c.sum[c.sumBase+(i-c.partOffset)*cs:], eT, g1, g2, run.Step*cs, q) {
			break
		}
		for ; len(qs) >= 12; qs = qs[12:] {
			o := (*[12]float64)(qs)
			for p := range 4 {
				c.note(o[p])
				c.derivativeTerms(i-c.partOffset, o[p], o[4+p], o[8+p], out)
				i += run.Step
			}
		}
		count += 4 * q
	}
	for ; i < run.Hi; i += 2 * run.Step {
		j := i - c.partOffset
		sa := c.sum[c.sumBase+j*cs:][:cs]
		sb, paired := sa, i+run.Step < run.Hi // an odd tail runs against itself and keeps one result
		if paired {
			sb = c.sum[c.sumBase+(j+run.Step)*cs:][:cs]
		}
		var la, la1, la2, lb, lb1, lb2 float64
		for k, ek := range eT {
			a, b := float64(sa[k]*ek), float64(sb[k]*ek)
			la += a
			la1 += float64(a * g1[k])
			la2 += float64(a * g2[k])
			lb += b
			lb1 += float64(b * g1[k])
			lb2 += float64(b * g2[k])
		}
		// The cs-length dot products ran, so a pattern is charged whether or
		// not derivativeTerms' guard accepts its contribution; skipped
		// patterns must not undercount the region's performed work.
		c.note(la)
		c.derivativeTerms(j, la, la1, la2, out)
		count++
		if paired {
			c.note(lb)
			c.derivativeTerms(j+run.Step, lb, lb1, lb2, out)
			count++
		}
	}
	return count
}

// DerivativeKernel is the quartet kernel derivativeGeneric runs whole
// quartets of a run on, derivative_amd64.s.
var DerivativeKernel = cpufeat.NewKernel("derivative quartets (AVX)", cpufeat.AVX)

// derivBlock is how many quartets one kernel call of derivativeGeneric
// takes: their 12 sums each live in the worker's scratch.
const derivBlock = 16

// note records pattern likelihood l for the lnL lane when it is on, before
// derivativeTerms' guard: SiteLogs clamps what the guard skips. A lane's run
// holds at most siteBlock patterns, so the mask only drops a bounds check.
//
//plk:hotpath
func (c *spanCtx) note(l float64) {
	if c.score {
		c.ls[c.nl&(siteBlock-1)] = l
		c.nl++
	}
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
	curv := float64(l2*inv) - float64(r1*r1)
	wj := c.lw[j*c.R : (j+1)*c.R]
	for r, w := range wj {
		out[2*r] += float64(w * r1)
		out[2*r+1] += float64(w * curv)
	}
}
