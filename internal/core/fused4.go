package core

import (
	"bytes"

	"phylo/internal/alignment"
	"phylo/internal/cpufeat"
	"phylo/internal/schedule"
)

// The fused 4-state (DNA) kernel bodies of BackendFused. They run over the
// CLV layout's category planes (see CLVLayout): each Gamma category is one
// contiguous, cache-line-aligned plane of patternCount×4 entries, so the
// kernels fix the category in an outer loop, hoist that category's 16
// transition-matrix entries out of the pattern loop, and sweep the patterns
// as straight-line multiply-adds over three linear streams (two reads,
// one write) — no per-pattern slicing, no inner b-loop, no bounds checks in
// the hot expressions. The cats×s² P application is fully unrolled for s=4.
//
// Bit-identity with the generic oracle: every unrolled expression preserves
// the generic loop's left-associated accumulation order (Go's + is
// left-associative, so p0·r0 + p1·r1 + p2·r2 + p3·r3 associates exactly like
// the b-ascending `sr += p[b]·r[b]` loop), and the cat-outer restructuring
// only reorders writes to distinct addresses, never any floating-point
// reduction. The scaling predicate ("every entry of the pattern below
// 2^-256") is a pure conjunction over all cats×4 entries, so the kernels
// evaluate it incrementally during the category sweeps — while the values
// are still in registers — into a per-pattern flag byte (worker.small);
// the closing pass then only propagates child exponents and rescales the
// (astronomically rare) flagged patterns, instead of re-reading every cold
// category plane the way a literal finishPattern sweep would.
//
// Each newview plane loop has two realisations. On amd64 with AVX a plane
// call (fused4_amd64.go) runs it as a kernel that computes a whole
// pattern-category quartet per instruction, one state per lane, in the
// operation order of the scalar expressions below; elsewhere, and for what a
// plane call leaves, the scalar loop runs. DESIGN.md ("Vector planes") has
// why the two are bit-identical.

// planesKernel is the plane calls' kernels, fused4_amd64.s.
var planesKernel = cpufeat.NewKernel("newview planes (AVX)", cpufeat.AVX)

// small4 reports whether all four values fall inside (-2^-256, 2^-256) —
// one pattern-category quartet's contribution to the scaling predicate.
//
//plk:hotpath
func small4(a, b, c, d float64) bool {
	return a < minLikelihood && a > -minLikelihood &&
		b < minLikelihood && b > -minLikelihood &&
		c < minLikelihood && c > -minLikelihood &&
		d < minLikelihood && d > -minLikelihood
}

// flagByte is a scaling flag as the plane kernels store it: 1 for true.
//
//plk:hotpath
func flagByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// newviewFused4 executes one newview pattern run with the unrolled 4-state
// kernels, category plane by category plane, then applies the per-pattern
// scaling pass. A tip child without a lookup table (share below the table
// threshold, or Specialize off) falls back to the generic body — the generic
// and fused bodies are bit-identical, so which one a share takes can never
// change results.
//
//plk:hotpath
func (c *spanCtx) newviewFused4(run schedule.Run) {
	if (c.a.tip && c.a.tab == nil) || (c.b.tip && c.b.tab == nil) {
		c.newviewGeneric(run)
		return
	}
	cats, cs := c.cats, c.cs
	small := c.wk.small
	// A plane call computes the first k of the run's n patterns (j0 the
	// first); its scalar loop takes the rest.
	j0, n := run.Lo-c.partOffset, run.Hi-run.Lo
	switch {
	case c.a.tab != nil && c.b.tab != nil:
		// Tip/tip: both table rows already hold the P applications; the
		// pattern reduces to their entrywise product.
		for cat := 0; cat < cats; cat++ {
			d := c.dst[c.base+cat*c.catStride:]
			to := cat * 4
			k := planeTipTip(d, c.a.tab, c.b.tab, c.a.row, c.b.row, small, j0, n, cs, to, cat == 0)
			for i := run.Lo + k; i < run.Hi; i++ {
				j := i - c.partOffset
				qo, ro := int(c.a.row[j])*cs+to, int(c.b.row[j])*cs+to
				tq := c.a.tab[qo : qo+4 : qo+4]
				tr := c.b.tab[ro : ro+4 : ro+4]
				o := j * 4
				dd := d[o : o+4 : o+4]
				v0 := tq[0] * tr[0]
				v1 := tq[1] * tr[1]
				v2 := tq[2] * tr[2]
				v3 := tq[3] * tr[3]
				dd[0], dd[1], dd[2], dd[3] = v0, v1, v2, v3
				if cat == 0 || small[j] != 0 {
					small[j] = flagByte(small4(v0, v1, v2, v3))
				}
			}
		}
	case c.a.tab != nil, c.b.tab != nil:
		// Tip/inner: the tip side is a table-row read, the inner side one
		// unrolled P application over its contiguous plane. (A built table
		// implies the sibling is an inner node: ensureTables builds tables
		// for both tip children or neither.)
		tab, row, xv, pm := c.a.tab, c.a.row, c.b.v, c.b.pm
		if c.b.tab != nil {
			tab, row, xv, pm = c.b.tab, c.b.row, c.a.v, c.a.pm
		}
		for cat := 0; cat < cats; cat++ {
			p := pm[cat*16 : cat*16+16]
			p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
			p4, p5, p6, p7 := p[4], p[5], p[6], p[7]
			p8, p9, p10, p11 := p[8], p[9], p[10], p[11]
			p12, p13, p14, p15 := p[12], p[13], p[14], p[15]
			x := xv[c.base+cat*c.catStride:]
			d := c.dst[c.base+cat*c.catStride:]
			to := cat * 4
			k := planeTipInner(d, x, tab, row, p, small, j0, n, cs, to, cat == 0)
			for i := run.Lo + k; i < run.Hi; i++ {
				j := i - c.partOffset
				o := j * 4
				xx := x[o : o+4 : o+4]
				dd := d[o : o+4 : o+4]
				r0, r1, r2, r3 := xx[0], xx[1], xx[2], xx[3]
				ti := int(row[j])*cs + to
				t := tab[ti : ti+4 : ti+4]
				v0 := t[0] * (p0*r0 + p1*r1 + p2*r2 + p3*r3)
				v1 := t[1] * (p4*r0 + p5*r1 + p6*r2 + p7*r3)
				v2 := t[2] * (p8*r0 + p9*r1 + p10*r2 + p11*r3)
				v3 := t[3] * (p12*r0 + p13*r1 + p14*r2 + p15*r3)
				dd[0], dd[1], dd[2], dd[3] = v0, v1, v2, v3
				if cat == 0 || small[j] != 0 {
					small[j] = flagByte(small4(v0, v1, v2, v3))
				}
			}
		}
	default:
		// Inner/inner: two unrolled P applications over contiguous planes.
		for cat := 0; cat < cats; cat++ {
			pq := c.a.pm[cat*16 : cat*16+16]
			q0, q1, q2, q3 := pq[0], pq[1], pq[2], pq[3]
			q4, q5, q6, q7 := pq[4], pq[5], pq[6], pq[7]
			q8, q9, q10, q11 := pq[8], pq[9], pq[10], pq[11]
			q12, q13, q14, q15 := pq[12], pq[13], pq[14], pq[15]
			pr := c.b.pm[cat*16 : cat*16+16]
			s0, s1, s2, s3 := pr[0], pr[1], pr[2], pr[3]
			s4, s5, s6, s7 := pr[4], pr[5], pr[6], pr[7]
			s8, s9, s10, s11 := pr[8], pr[9], pr[10], pr[11]
			s12, s13, s14, s15 := pr[12], pr[13], pr[14], pr[15]
			xq := c.a.v[c.base+cat*c.catStride:]
			xr := c.b.v[c.base+cat*c.catStride:]
			d := c.dst[c.base+cat*c.catStride:]
			k := planeInner(d, xq, xr, pq, pr, small, j0, n, cat == 0)
			for i := run.Lo + k; i < run.Hi; i++ {
				j := i - c.partOffset
				o := j * 4
				xa := xq[o : o+4 : o+4]
				xb := xr[o : o+4 : o+4]
				dd := d[o : o+4 : o+4]
				a0, a1, a2, a3 := xa[0], xa[1], xa[2], xa[3]
				b0, b1, b2, b3 := xb[0], xb[1], xb[2], xb[3]
				v0 := (q0*a0 + q1*a1 + q2*a2 + q3*a3) *
					(s0*b0 + s1*b1 + s2*b2 + s3*b3)
				v1 := (q4*a0 + q5*a1 + q6*a2 + q7*a3) *
					(s4*b0 + s5*b1 + s6*b2 + s7*b3)
				v2 := (q8*a0 + q9*a1 + q10*a2 + q11*a3) *
					(s8*b0 + s9*b1 + s10*b2 + s11*b3)
				v3 := (q12*a0 + q13*a1 + q14*a2 + q15*a3) *
					(s12*b0 + s13*b1 + s14*b2 + s15*b3)
				dd[0], dd[1], dd[2], dd[3] = v0, v1, v2, v3
				if cat == 0 || small[j] != 0 {
					small[j] = flagByte(small4(v0, v1, v2, v3))
				}
			}
		}
	}
	c.scalePass(small, run)
}

// scalePass is newviewFused4's closing pass: propagate the children's
// exponents and rescale flagged patterns. Same arithmetic as finishPattern,
// but driven by the flags the sweeps computed, so the common (unflagged) case
// touches no CLV data: it propagates the exponents as one copy or one add
// and visits only the run's flagged patterns, which bytes.IndexByte finds.
//
//plk:hotpath
func (c *spanCtx) scalePass(small []byte, run schedule.Run) {
	lo, hi := run.Lo, run.Hi
	ds := c.dstScale[lo:hi]
	switch {
	case c.a.tip && c.b.tip:
		clear(ds)
	case c.a.tip:
		copy(ds, c.b.sc[lo:hi])
	case c.b.tip:
		copy(ds, c.a.sc[lo:hi])
	default:
		as, bs := c.a.sc[lo:hi], c.b.sc[lo:hi]
		for k := range ds {
			ds[k] = as[k] + bs[k]
		}
	}
	fl := small[lo-c.partOffset : hi-c.partOffset]
	for k := 0; ; k++ {
		f := bytes.IndexByte(fl[k:], 1)
		if f < 0 {
			break
		}
		k += f
		c.rescale(lo - c.partOffset + k)
		ds[k]++
	}
}

// rescale multiplies every entry of pattern j's CLV by 2^256: one scaling
// event.
//
//plk:hotpath
func (c *spanCtx) rescale(j int) {
	off := c.base + j*c.s
	for cat := 0; cat < c.cats; cat++ {
		co := off + cat*c.catStride
		d := c.dst[co : co+4 : co+4]
		d[0] *= twoTo256
		d[1] *= twoTo256
		d[2] *= twoTo256
		d[3] *= twoTo256
	}
	c.scaled++
}

// rawFused4 fills blk[:n] with the raw category-summed likelihoods of the
// partition's patterns j0, j0+1, …, four patterns at a time: four
// independent add chains, so a pattern's 16 dependent adds (4 categories × 4
// states) need not wait for another pattern's. Each chain is exactly the
// generic loop's: li + f0·x0·t0 + … + f3·x3·t3 per category,
// categories ascending, left-associated from +0, where x is the p side and t
// the q side's table row or P application. The lanes of a last quartet that
// runs past n repeat the block's last pattern; what they compute is never
// read.
//
//plk:hotpath
func (c *spanCtx) rawFused4(blk *[siteBlock]float64, n, j0 int) {
	last := j0 + n - 1
	for k := 0; k < n; k += 4 {
		ja := j0 + k
		jb, jc, jd := min(ja+1, last), min(ja+2, last), min(ja+3, last)
		q := (*[4]float64)(blk[k : k+4])
		if c.b.tab != nil {
			q[0], q[1], q[2], q[3] = c.liTable4(ja, jb, jc, jd)
		} else {
			q[0], q[1], q[2], q[3] = c.liApply4(ja, jb, jc, jd)
		}
	}
}

// liTable4 is four chains whose q side is a tip table row; the p side is an
// inner CLV (a branch between two tips has no evaluate).
//
//plk:hotpath
func (c *spanCtx) liTable4(ja, jb, jc, jd int) (la, lb, lc, ld float64) {
	f := (*[4]float64)(c.freqs)
	v, tab, row, cs, cst := c.a.v, c.b.tab, c.b.row, c.cs, c.catStride
	ta, tb := tab[int(row[ja])*cs:], tab[int(row[jb])*cs:]
	tc, td := tab[int(row[jc])*cs:], tab[int(row[jd])*cs:]
	oa, ob := c.base+ja*c.s, c.base+jb*c.s
	oc, od := c.base+jc*c.s, c.base+jd*c.s
	for to := 0; to < cs; to += 4 {
		la = term4(la, f, (*[4]float64)(v[oa:]), (*[4]float64)(ta[to:]))
		lb = term4(lb, f, (*[4]float64)(v[ob:]), (*[4]float64)(tb[to:]))
		lc = term4(lc, f, (*[4]float64)(v[oc:]), (*[4]float64)(tc[to:]))
		ld = term4(ld, f, (*[4]float64)(v[od:]), (*[4]float64)(td[to:]))
		oa, ob, oc, od = oa+cst, ob+cst, oc+cst, od+cst
	}
	return la, lb, lc, ld
}

// liApply4 is four chains whose q side is an inner CLV, which each category
// applies its P block to; the p side is a tip vector or an inner CLV.
//
//plk:hotpath
func (c *spanCtx) liApply4(ja, jb, jc, jd int) (la, lb, lc, ld float64) {
	f := (*[4]float64)(c.freqs)
	u, v, pm, tip, cst := c.a.v, c.b.v, c.b.pm, c.a.tip, c.catStride
	oa, ob := c.base+ja*c.s, c.base+jb*c.s
	oc, od := c.base+jc*c.s, c.base+jd*c.s
	var xa, xb, xc, xd *[4]float64
	if tip {
		row := c.a.row
		xa, xb = &alignment.DNATipVectors[row[ja]], &alignment.DNATipVectors[row[jb]]
		xc, xd = &alignment.DNATipVectors[row[jc]], &alignment.DNATipVectors[row[jd]]
	}
	for po := 0; po < c.cats*16; po += 16 {
		p := (*[16]float64)(pm[po:])
		if !tip {
			xa, xb = (*[4]float64)(u[oa:]), (*[4]float64)(u[ob:])
			xc, xd = (*[4]float64)(u[oc:]), (*[4]float64)(u[od:])
		}
		la = step4(la, f, xa, p, (*[4]float64)(v[oa:]))
		lb = step4(lb, f, xb, p, (*[4]float64)(v[ob:]))
		lc = step4(lc, f, xc, p, (*[4]float64)(v[oc:]))
		ld = step4(ld, f, xd, p, (*[4]float64)(v[od:]))
		oa, ob, oc, od = oa+cst, ob+cst, oc+cst, od+cst
	}
	return la, lb, lc, ld
}

// term4 is one category's step of an evaluate chain, li + f0·x0·t0 + f1·x1·t1
// + f2·x2·t2 + f3·x3·t3: the generic loop's li += freqs[a]·cl[a]·t[a] for a
// ascending. The explicit conversions round every product on its own, so no
// GOARCH may fuse it into the add.
//
//plk:hotpath
func term4(li float64, f, x, t *[4]float64) float64 {
	return li + float64(f[0]*x[0]*t[0]) + float64(f[1]*x[1]*t[1]) + float64(f[2]*x[2]*t[2]) + float64(f[3]*x[3]*t[3])
}

// step4 is term4 with t = p·r, the P application of one row-major 4 × 4
// block, each row summed b-ascending as the newview expressions above.
//
//plk:hotpath
func step4(li float64, f, x *[4]float64, p *[16]float64, r *[4]float64) float64 {
	r0, r1, r2, r3 := r[0], r[1], r[2], r[3]
	t := [4]float64{
		float64(p[0]*r0) + float64(p[1]*r1) + float64(p[2]*r2) + float64(p[3]*r3),
		float64(p[4]*r0) + float64(p[5]*r1) + float64(p[6]*r2) + float64(p[7]*r3),
		float64(p[8]*r0) + float64(p[9]*r1) + float64(p[10]*r2) + float64(p[11]*r3),
		float64(p[12]*r0) + float64(p[13]*r1) + float64(p[14]*r2) + float64(p[15]*r3),
	}
	return term4(li, f, x, &t)
}
