package core

import (
	"phylo/internal/alignment"
	"phylo/internal/schedule"
)

// The fused 4-state (DNA) kernel bodies of BackendFused. They run over the
// cat-major, state-contiguous CLV layout (see CLVLayout): each Gamma category
// is one contiguous, cache-line-aligned plane of patternCount×4 entries, so
// the kernels fix the category in an outer loop, hoist that category's 16
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
// are still in registers — into a per-pattern flag (engine.smallScratch);
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

// newviewFused4 executes one newview pattern run with the unrolled 4-state
// kernels, category plane by category plane, then applies the per-pattern
// scaling pass. A tip child without a lookup table (share below the table
// threshold, or Specialize off) falls back to the stride-aware generic body —
// the generic and fused bodies are bit-identical, so mixing them across
// chunks of one span can never change results.
//
//plk:hotpath
func (c *spanCtx) newviewFused4(run schedule.Run) int {
	if (c.a.tip && c.a.tab == nil) || (c.b.tip && c.b.tab == nil) {
		return c.newviewGeneric(run)
	}
	cats, cs := c.cats, c.cs
	small := c.e.smallScratch[c.w]
	// A plane call computes the first k of the run's n patterns (j0 the
	// first); its scalar loop takes the rest.
	j0, n := run.Lo-c.partOffset, (run.Hi-run.Lo+run.Step-1)/run.Step
	switch {
	case c.a.tab != nil && c.b.tab != nil:
		// Tip/tip: both table rows already hold the P applications; the
		// pattern reduces to their entrywise product.
		for cat := 0; cat < cats; cat++ {
			d := c.dst[c.base+cat*c.catStride:]
			to := cat * 4
			k := planeTipTip(d, c.a.tab, c.b.tab, c.a.row, c.b.row, small, j0, n, run.Step, cs, to, cat == 0)
			for i := run.Lo + k*run.Step; i < run.Hi; i += run.Step {
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
				if cat == 0 || small[j] {
					small[j] = small4(v0, v1, v2, v3)
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
			k := planeTipInner(d, x, tab, row, p, small, j0, n, run.Step, cs, to, cat == 0)
			for i := run.Lo + k*run.Step; i < run.Hi; i += run.Step {
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
				if cat == 0 || small[j] {
					small[j] = small4(v0, v1, v2, v3)
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
			k := planeInner(d, xq, xr, pq, pr, small, j0, n, run.Step, cat == 0)
			for i := run.Lo + k*run.Step; i < run.Hi; i += run.Step {
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
				if cat == 0 || small[j] {
					small[j] = small4(v0, v1, v2, v3)
				}
			}
		}
	}
	// Scaling pass: propagate the children's exponents and rescale flagged
	// patterns. Same arithmetic as finishPattern, but driven by the flags the
	// sweeps computed, so the common (unflagged) case touches no CLV data.
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		sc := int32(0)
		if !c.a.tip {
			sc += c.a.sc[i]
		}
		if !c.b.tip {
			sc += c.b.sc[i]
		}
		if small[j] {
			off := c.base + j*c.patStride
			for cat := 0; cat < cats; cat++ {
				co := off + cat*c.catStride
				d := c.dst[co : co+4]
				d[0] *= twoTo256
				d[1] *= twoTo256
				d[2] *= twoTo256
				d[3] *= twoTo256
			}
			sc++
			c.scaled++
		}
		c.dstScale[i] = sc
		count++
	}
	return count
}

// evaluateFused4 reduces one evaluate pattern run with the unrolled 4-state
// body. Evaluate must accumulate each pattern's likelihood in (cat asc, state
// asc) order to stay bit-identical with the oracle, so it keeps the pattern
// loop outside and unrolls the per-category work; the `li + x0 + x1 + x2 +
// x3` expressions associate exactly like the generic `li += x` loop, and the
// R-lane weighted accumulation is the generic body's. A q-side tip without a
// table falls back to the generic body, which is bit-identical.
//
//plk:hotpath
func (c *spanCtx) evaluateFused4(run schedule.Run, out []float64) int {
	if c.b.tip && c.b.tab == nil {
		return c.evaluateGeneric(run, out)
	}
	f0, f1, f2, f3 := c.freqs[0], c.freqs[1], c.freqs[2], c.freqs[3]
	cats := c.cats
	R, lw := c.R, c.lw
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		off := c.base + j*c.patStride
		var tv []float64
		if c.a.tip {
			tv = alignment.TipVector(c.dtype, c.a.row[j])
		}
		li := 0.0
		if c.b.tab != nil {
			t := c.b.tab[int(c.b.row[j])*c.cs:]
			for cat := 0; cat < cats; cat++ {
				cl := tv
				if !c.a.tip {
					co := off + cat*c.catStride
					cl = c.a.v[co : co+4]
				}
				tc := t[cat*4 : cat*4+4]
				li = li + f0*cl[0]*tc[0] + f1*cl[1]*tc[1] + f2*cl[2]*tc[2] + f3*cl[3]*tc[3]
			}
		} else {
			for cat := 0; cat < cats; cat++ {
				pc := c.b.pm[cat*16 : cat*16+16]
				co := off + cat*c.catStride
				cr := c.b.v[co : co+4]
				r0, r1, r2, r3 := cr[0], cr[1], cr[2], cr[3]
				cl := tv
				if !c.a.tip {
					cl = c.a.v[co : co+4]
				}
				t0 := pc[0]*r0 + pc[1]*r1 + pc[2]*r2 + pc[3]*r3
				t1 := pc[4]*r0 + pc[5]*r1 + pc[6]*r2 + pc[7]*r3
				t2 := pc[8]*r0 + pc[9]*r1 + pc[10]*r2 + pc[11]*r3
				t3 := pc[12]*r0 + pc[13]*r1 + pc[14]*r2 + pc[15]*r3
				li = li + f0*cl[0]*t0 + f1*cl[1]*t1 + f2*cl[2]*t2 + f3*cl[3]*t3
			}
		}
		site := c.site(i, j, li)
		for r := range out {
			out[r] += lw[j*R+r] * site
		}
		count++
	}
	return count
}
