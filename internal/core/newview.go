package core

import (
	"phylo/internal/alignment"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// Traverse establishes a valid CLV at record p (oriented towards p.Back) by
// executing the necessary newview steps in a single parallel region — the
// whole traversal descriptor is fanned out once and ends in one barrier,
// exactly as in RAxML's Pthreads design. With partial true, only stale CLVs
// are recomputed (the paper's partial traversals after local changes).
// active masks the partitions to update (nil = all); masked partitions keep
// their previous CLV contents.
func (e *Engine) Traverse(p *tree.Node, partial bool, active []bool) {
	e.ExecuteSteps(tree.ComputeTraversal(p, partial), active)
}

// TraverseRoot validates the CLVs at both ends of the branch (p, p.Back).
func (e *Engine) TraverseRoot(p *tree.Node, partial bool, active []bool) {
	e.ExecuteSteps(tree.RootTraversal(p, partial), active)
}

// ExecuteSteps executes a traversal descriptor in one parallel region (one
// barrier at the end, as the paper's design requires). Every worker walks the
// full step list and, per step, drains its chunks of the active partitions
// (see drain in chunkexec.go); per span encounter it computes the two child
// transition matrices redundantly — this mirrors RAxML, where each Pthread
// computes P locally rather than paying an extra synchronization to share it.
// With Specialize on, tip children whose owner's share amortizes a lookup
// table (see tiptables.go) become O(cats·s) table-row reads instead of
// O(cats·s²) P applications; all paths produce bit-identical CLVs. The
// tree-search package issues hand-built single-step descriptors through this
// entry point during SPR insertion trials.
func (e *Engine) ExecuteSteps(steps []tree.TraversalStep, active []bool) {
	if len(steps) == 0 {
		return
	}
	// Hand-built steps may bypass ComputeTraversal; keep the X orientation
	// flags in sync with what is about to be computed (idempotent for steps
	// that came from ComputeTraversal).
	for _, st := range steps {
		tree.OrientX(st.P)
	}
	e.runRegion(region{kind: parallel.RegionNewview, steps: steps}, e.activeOrAll(active))
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

// newviewGeneric is the layout-aware generic newview body: per pattern,
// dst[off + cat·catStride + a] =
// (sum_b Pq_c[a][b] xq_c[b]) · (sum_b Pr_c[a][b] xr_c[b]), with a tip child's
// P application replaced by a table-row read when a lookup table is built.
// Tip children without tables supply a single category-independent 0/1
// vector. Every P application is one applyP (applyRows or model.ApplyCols, by
// the block's layout); under the pattern-major layout this produces the seed
// kernel's sums term for term, and under the cat-major layout only the
// addresses change, so the two layouts (and the fused kernels, which preserve
// the same left-associated accumulation order) produce bit-identical CLVs.
//
//plk:hotpath
func (c *spanCtx) newviewGeneric(run schedule.Run) int {
	s, cs, cats := c.s, c.cs, c.cats
	ss := s * s
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		off := c.base + j*c.patStride
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
			tab, row, xv, pm := c.a.tab, c.a.row, c.b.v, c.b.pm
			if c.b.tab != nil {
				tab, row, xv, pm = c.b.tab, c.b.row, c.a.v, c.a.pm
			}
			tq := tab[int(row[j])*cs : int(row[j])*cs+cs]
			for cat := 0; cat < cats; cat++ {
				co := off + cat*c.catStride
				d := c.dst[co : co+s]
				t := tq[cat*s:][:len(d)]
				c.applyP(d, pm[cat*ss:(cat+1)*ss], xv[co:co+s])
				for a := range d {
					d[a] = t[a] * d[a]
				}
			}
		default:
			var tvq, tvr []float64
			if c.a.tip {
				tvq = alignment.TipVector(c.dtype, c.a.row[j])
			}
			if c.b.tip {
				tvr = alignment.TipVector(c.dtype, c.b.row[j])
			}
			sr := c.tmp[:s]
			for cat := 0; cat < cats; cat++ {
				co := off + cat*c.catStride
				cq := tvq
				if !c.a.tip {
					cq = c.a.v[co : co+s]
				}
				cr := tvr
				if !c.b.tip {
					cr = c.b.v[co : co+s]
				}
				d := c.dst[co : co+s]
				c.applyP(d, c.a.pm[cat*ss:(cat+1)*ss], cq)
				c.applyP(sr, c.b.pm[cat*ss:(cat+1)*ss], cr)
				for a := range d {
					d[a] = d[a] * sr[a]
				}
			}
		}
		c.finishPattern(i, off)
		count++
	}
	return count
}

// finishPattern applies the numerical scaling step to one freshly computed
// pattern: propagate the children's scaling exponents and, when every entry
// of the pattern's CLV drops below the threshold, multiply the whole pattern
// by 2^256 and increment the exponent. The predicate scans entries in (cat
// asc, state asc) order under either layout; it is order-independent anyway
// (all entries must be small), and the multiplication touches every entry, so
// scaling is layout- and backend-invariant.
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
