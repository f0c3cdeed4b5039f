package core

import (
	"slices"

	"phylo/internal/cpufeat"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// TraverseRoot validates the CLVs at both ends of the branch (p, p.Back) by
// executing the newview steps of their partial traversal in a single
// parallel region — the whole traversal descriptor is fanned out once and
// ends in one barrier, exactly as in RAxML's Pthreads design. Only stale
// CLVs are recomputed (the paper's partial traversals after local changes),
// over every partition. Evaluate and BranchDerivatives run their own, so no
// program path calls this: it is the step-only region the kernel tests and
// benchmarks time and count (after Tree.ClearX, to time a whole traversal).
// With Specialize on, tip children whose owner's share amortizes a lookup
// table (see tiptables.go) become O(cats·s) table-row reads instead of
// O(cats·s²) P applications; all paths produce bit-identical CLVs.
func (e *Engine) TraverseRoot(p *tree.Node) {
	if steps := e.rootSteps(p, e.shared.allMask); len(steps) > 0 {
		e.runRegion(region{kind: parallel.RegionNewview, steps: steps, stepAct: e.shared.allMask}, nil)
	}
}

// rootSteps lists the root traversal at (p, p.Back) into the session's step
// buffer (room for a whole traversal: listing allocates nothing) for a
// region that runs the steps over stepAct's partitions. It is the engine's one rule of CLV validity: every
// flag is cleared first unless the models' epochs (model.Epoch) are those
// the flags were set under and the steps that set them, in this session, ran
// over every partition. Only a listing with steps moves that stamp: a region
// that recomputes nothing leaves every flag as true as it found it. A listed
// step may rewrite an end of the last sumtable's branch, so it also forgets
// that branch (BranchDerivatives).
func (e *Engine) rootSteps(p *tree.Node, stepAct []bool) []tree.TraversalStep {
	epochs := e.checkX()
	if e.steps = tree.RootTraversal(e.steps[:0], p); len(e.steps) > 0 {
		e.stamp(epochs, stepAct)
	}
	return e.steps
}

// checkX clears every flag unless the flags are the current models' and
// whole, and returns the models' epoch sum, the stamp listed steps record.
func (e *Engine) checkX() uint64 {
	var epochs uint64
	for _, m := range e.Models {
		epochs += m.Epoch()
	}
	if e.xPartial || epochs != e.xEpochs {
		e.Tree.ClearX()
	}
	return epochs
}

// stamp records that listed steps run over stepAct's partitions under the
// models at epochs, and forgets the last sumtable's branch.
func (e *Engine) stamp(epochs uint64, stepAct []bool) {
	e.xEpochs, e.xPartial, e.sumAt = epochs, slices.Contains(stepAct, false), nil
}

// applyRows is the generic bodies' P application to a 4-state block, whose
// layout is row-major (model.PMatrices; wider blocks go to model.ApplyCols):
// dst[k] = Σ_a m[k·len(x)+a]·x[a] for the len(dst) rows of m. Four rows
// accumulate side by side — a lone += chain waits out the add latency on
// every term, four keep the adder busy — and each sum still runs a ascending
// from +0, so every dst[k] carries the bits of the one-row loop
// (applyRowsReference in reference_test.go). Rows are re-sliced to len(x):
// the per-term loop has no bounds check.
//
//plk:hotpath
func applyRows(dst, m, x []float64) {
	s, k := len(x), 0
	for ; k+4 <= len(dst); k += 4 {
		r0, r1, r2, r3 := m[k*s:][:s], m[(k+1)*s:][:s], m[(k+2)*s:][:s], m[(k+3)*s:][:s]
		var s0, s1, s2, s3 float64
		for a, xa := range x {
			s0 += r0[a] * xa
			s1 += r1[a] * xa
			s2 += r2[a] * xa
			s3 += r3[a] * xa
		}
		dst[k], dst[k+1], dst[k+2], dst[k+3] = s0, s1, s2, s3
	}
	for ; k < len(dst); k++ {
		r, sum := m[k*s:][:s], 0.0
		for a, xa := range x {
			sum += r[a] * xa
		}
		dst[k] = sum
	}
}

// newviewGeneric is the generic newview body: per pattern,
// dst[off + cat·catStride + a] =
// (sum_b Pq_c[a][b] xq_c[b]) · (sum_b Pr_c[a][b] xr_c[b]), with a tip child's
// P application replaced by a table-row read when a lookup table is built.
// Tip children without tables supply a single category-independent 0/1
// vector. Every P application is one applyP (applyRows or model.ApplyCols, by
// the block's layout), each sum in the seed kernel's term order, so the fused
// kernels, which preserve the same left-associated accumulation order,
// produce bit-identical CLVs. Where the host has the kernels
// (newview20_amd64.s) and the run is 20-state, a pattern's categories go
// through one call, both P applications (or a table row and one) and their
// product in registers, the same operations in the same order; whether they
// take the run is decided once, before its first pattern.
//
//plk:hotpath
func (c *spanCtx) newviewGeneric(run schedule.Run) {
	s, cs, cats := c.s, c.cs, c.cats
	ss := s * s
	rows := c.newviewRowsFit(run)
	for i := run.Lo; i < run.Hi; i++ {
		j := i - c.partOffset
		off := c.base + j*c.s
		switch {
		case c.a.tab != nil && c.b.tab != nil:
			// Both children specialized tips: the table rows already hold the
			// P applications; the pattern reduces to their entrywise product.
			tq := c.a.tab[int(c.a.row[j])*cs : int(c.a.row[j])*cs+cs]
			tr := c.b.tab[int(c.b.row[j])*cs : int(c.b.row[j])*cs+cs]
			for cat := 0; cat < cats; cat++ {
				co := off + cat*c.catStride
				d := c.dst[co : co+s]
				t1 := tq[cat*s : cat*s+s]
				t2 := tr[cat*s : cat*s+s]
				for a := 0; a < s; a++ {
					d[a] = t1[a] * t2[a]
				}
			}
		case c.a.tab != nil, c.b.tab != nil:
			// Exactly one specialized tip child (a tip the table decision
			// skipped never coexists with a built sibling table — ensureTables
			// builds both or neither); the inner child pays the P application.
			tab, row, x := c.a.tab, c.a.row, &c.b
			if c.b.tab != nil {
				tab, row, x = c.b.tab, c.b.row, &c.a
			}
			tq := tab[int(row[j])*cs : int(row[j])*cs+cs]
			if rows {
				newviewRowAVX(c.dst[off:], tq, x.pm, x.v[off:], c.catStride, cats)
				break
			}
			for cat := 0; cat < cats; cat++ {
				co := off + cat*c.catStride
				d := c.dst[co : co+s]
				t := tq[cat*s:][:len(d)]
				c.applyP(d, x.pm[cat*ss:(cat+1)*ss], x.v[co:co+s])
				for a := range d {
					d[a] = t[a] * d[a]
				}
			}
		default:
			// Inner children read their CLV a category plane apart; a tip
			// child its 0/1 vector, the same for every category (stride 0).
			q, r := c.sideOf(&c.a, j, off), c.sideOf(&c.b, j, off)
			if rows {
				newviewPairAVX(c.dst[off:], c.a.pm, q.x, c.b.pm, r.x, c.catStride, q.stride, r.stride, cats)
				break
			}
			sr := c.tmp[:s]
			for cat := 0; cat < cats; cat++ {
				co := off + cat*c.catStride
				d := c.dst[co : co+s]
				c.applyP(d, c.a.pm[cat*ss:(cat+1)*ss], q.x[cat*q.stride:cat*q.stride+s])
				c.applyP(sr, c.b.pm[cat*ss:(cat+1)*ss], r.x[cat*r.stride:cat*r.stride+s])
				for a := range d {
					d[a] = d[a] * sr[a]
				}
			}
		}
		c.finishPattern(i, off)
	}
}

// NewviewRowsKernel is the kernel newviewGeneric runs a 20-state pattern's
// categories on, newview20_amd64.s.
var NewviewRowsKernel = cpufeat.NewKernel("newview rows (AVX)", cpufeat.AVX)

// finishPattern applies the numerical scaling step to one freshly computed
// pattern: propagate the children's scaling exponents and, when every entry
// of the pattern's CLV drops below the threshold, multiply the whole pattern
// by 2^256 and increment the exponent. The predicate scans entries in (cat
// asc, state asc) order; it is order-independent anyway (all entries must be
// small), and the multiplication touches every entry, so scaling is
// backend-invariant.
//
//plk:hotpath
func (c *spanCtx) finishPattern(i, off int) {
	sc := int32(0)
	if !c.a.tip {
		sc += c.a.sc[i]
	}
	if !c.b.tip {
		sc += c.b.sc[i]
	}
	needScale := true
outer:
	for cat := 0; cat < c.cats; cat++ {
		co := off + cat*c.catStride
		d := c.dst[co : co+c.s]
		for _, v := range d {
			if v >= minLikelihood || v <= -minLikelihood {
				needScale = false
				break outer
			}
		}
	}
	if needScale {
		for cat := 0; cat < c.cats; cat++ {
			co := off + cat*c.catStride
			d := c.dst[co : co+c.s]
			for k := range d {
				d[k] *= twoTo256
			}
		}
		sc++
		c.scaled++
	}
	c.dstScale[i] = sc
}
