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
// full step list and, per step, drains its chunks of the active partitions;
// per span encounter it computes the two child transition matrices
// redundantly — this mirrors RAxML, where each Pthread computes P locally
// rather than paying an extra synchronization to share it. Between steps the
// runtime's NextStep rewinds the worker (and, only when thieving, barriers).
// With Specialize on, tip children whose owner's share amortizes a lookup
// table (see tiptables.go) become O(cats·s) table-row reads instead of
// O(cats·s²) P applications; all paths produce bit-identical CLVs.
// Observability counters (patterns processed, span case, scaling events)
// flush into ctx per chunk, off the pattern loop. The tree-search package
// issues hand-built single-step descriptors through this entry point during
// SPR insertion trials.
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
	act := e.activeOrAll(active)
	rt := e.stealRT
	rt.Load(act)
	e.Exec.Run(parallel.RegionNewview, func(w int, ctx *parallel.WorkerCtx) {
		pmQ := e.pmScratch[w][0]
		pmR := e.pmScratch[w][1]
		ops := 0.0
		var c nvSpanCtx
		for si := range steps {
			if si > 0 {
				rt.NextStep(w, ctx)
			}
			cached := -1
			for {
				id := rt.Next(w, ctx)
				if id < 0 {
					break
				}
				ch := rt.Layout().Chunk(id)
				if ch.Span != cached {
					e.prepareNewviewSpan(&c, steps[si], ch.Span, w, pmQ, pmR)
					cached = ch.Span
					c.noteSpan(ctx)
				}
				c.ensureTables(ch.Share)
				count := c.kern.Newview(&c, ch.Run())
				ops += c.takeOps(count)
				// prepareNewviewSpan resets c, so scaled cannot be left to
				// accumulate across span switches.
				ctx.Patterns += float64(count)
				ctx.Scalings += c.scaled
				c.scaled = 0
			}
		}
		ctx.Ops += ops
	})
	rt.Finish()
}

// nvSpanCtx is the per-(step, partition, worker) newview setup — transition
// matrices, child CLV/tip bindings, layout strides, and the optional tip
// lookup tables — factored out of the pattern loop: the driver prepares once
// per (worker, span) encounter and processes one chunk at a time, re-using
// the setup across consecutive chunks of the same span. The pattern loops
// themselves run in the backend implementation bound at kern (see
// KernelBackend).
type nvSpanCtx struct {
	e          *Engine
	ip, w      int
	s, cats    int
	cs         int
	base       int
	patStride  int // layout: offset between consecutive patterns
	catStride  int // layout: offset between consecutive categories
	partOffset int
	dtype      alignment.DataType
	dst        []float64
	dstScale   []int32
	qTip, rTip bool
	qv, rv     []float64
	qs, rs     []int32
	qRow, rRow []byte
	qCodes     []byte // codes present in qRow, ascending (nil for an inner child)
	rCodes     []byte
	pmQ, pmR   []float64
	tabQ, tabR []float64
	kern       KernelBackend
	fixed      float64 // setup ops not yet claimed by takeOps
	scaled     float64 // scaling events since prepare (flushed to WorkerCtx)
}

// noteSpan tallies this span's child case into the worker's observability
// scratch — called once per span encounter, never per pattern.
func (c *nvSpanCtx) noteSpan(ctx *parallel.WorkerCtx) {
	switch {
	case c.qTip && c.rTip:
		ctx.SpanTipTip++
	case c.qTip || c.rTip:
		ctx.SpanTipInner++
	default:
		ctx.SpanInner++
	}
}

// prepareNewviewSpan binds c to (step, partition, worker): it computes both
// child transition-matrix blocks into the worker's scratch and resolves the
// child CLV/tip-row/scaling views. The fixed op charge for the redundant
// per-worker P-matrix setup accumulates in c.fixed.
func (e *Engine) prepareNewviewSpan(c *nvSpanCtx, st tree.TraversalStep, ip, w int, pmQ, pmR []float64) {
	part := e.Data.Parts[ip]
	s := part.Type.States()
	cats := e.numCats
	m := e.Models[ip]
	slot := e.slotOf(ip)
	m.PMatrices(st.Q.Z[slot], pmQ[:cats*s*s])
	m.PMatrices(st.R.Z[slot], pmR[:cats*s*s])
	*c = nvSpanCtx{
		e: e, ip: ip, w: w, s: s, cats: cats, cs: cats * s,
		base: e.layout.Base(ip), patStride: e.layout.PatStride(ip), catStride: e.layout.CatStride(ip),
		partOffset: part.Offset, dtype: part.Type,
		dst: e.clv(st.P.Index), dstScale: e.scale(st.P.Index),
		qTip: st.Q.IsTip(), rTip: st.R.IsTip(),
		pmQ: pmQ, pmR: pmR,
		kern:  e.kernels[ip],
		fixed: float64(2 * cats * s * s * s), // redundant per-worker P-matrix setup
	}
	if c.qTip {
		c.qRow, c.qCodes = part.Tips[st.Q.Index], part.Codes[st.Q.Index]
	} else {
		c.qv = e.clv(st.Q.Index)
		c.qs = e.scale(st.Q.Index)
	}
	if c.rTip {
		c.rRow, c.rCodes = part.Tips[st.R.Index], part.Codes[st.R.Index]
	} else {
		c.rv = e.clv(st.R.Index)
		c.rs = e.scale(st.R.Index)
	}
}

// ensureTables builds the tip lookup tables when a share of this many
// patterns amortizes them and they are not already built. Drivers pass the
// chunk owner's whole share of the span, a pure function of the layout; and
// because table and generic paths are bit-identical, mixing them across
// chunks of one span can never change results, only the op accounting.
func (c *nvSpanCtx) ensureTables(patterns int) {
	e := c.e
	if !e.Specialize || !(c.qTip || c.rTip) || !tipTablesAmortize(patterns, c.qCodes, c.rCodes) {
		return
	}
	if c.qTip && c.tabQ == nil {
		c.tabQ = buildTipTable(e.tipScratch[c.w][0], c.dtype, c.qCodes, c.pmQ, c.s, c.cats)
		c.fixed += opsTipTable(c.s, c.cats, len(c.qCodes))
	}
	if c.rTip && c.tabR == nil {
		c.tabR = buildTipTable(e.tipScratch[c.w][1], c.dtype, c.rCodes, c.pmR, c.s, c.cats)
		c.fixed += opsTipTable(c.s, c.cats, len(c.rCodes))
	}
}

// takeOps prices count processed patterns by the kernel case that ran and
// claims any outstanding setup charge.
func (c *nvSpanCtx) takeOps(count int) float64 {
	ops := float64(count)*opsNewviewCase(c.s, c.cats, c.tabQ != nil, c.tabR != nil) + c.fixed
	c.fixed = 0
	return ops
}

// processGeneric is the layout-aware generic newview body: per pattern,
// dst[off + cat·catStride + a] =
// (sum_b Pq_c[a][b] xq_c[b]) · (sum_b Pr_c[a][b] xr_c[b]), with a tip child's
// P application replaced by a table-row read when a lookup table is built.
// Tip children without tables supply a single category-independent 0/1
// vector. Under the pattern-major layout this executes the seed kernel's
// exact operation sequence; under the cat-major layout only the addresses
// change, so the two layouts (and the fused kernels, which preserve the same
// left-associated accumulation order) produce bit-identical CLVs.
//
//plk:hotpath
func (c *nvSpanCtx) processGeneric(run schedule.Run) int {
	s, cs, cats := c.s, c.cs, c.cats
	ss := s * s
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		off := c.base + j*c.patStride
		switch {
		case c.tabQ != nil && c.tabR != nil:
			// Both children specialized tips: the table rows already hold the
			// P applications; the pattern reduces to their entrywise product.
			tq := c.tabQ[int(c.qRow[j])*cs : int(c.qRow[j])*cs+cs]
			tr := c.tabR[int(c.rRow[j])*cs : int(c.rRow[j])*cs+cs]
			for cat := 0; cat < cats; cat++ {
				co := off + cat*c.catStride
				d := c.dst[co : co+s]
				t1 := tq[cat*s : cat*s+s]
				t2 := tr[cat*s : cat*s+s]
				for a := 0; a < s; a++ {
					d[a] = t1[a] * t2[a]
				}
			}
		case c.tabQ != nil, c.tabR != nil:
			// Exactly one specialized tip child (a tip the table decision
			// skipped never coexists with a built sibling table — ensureTables
			// builds both or neither); the inner child pays the P application.
			tab, row, xv, pm := c.tabQ, c.qRow, c.rv, c.pmR
			if c.tabR != nil {
				tab, row, xv, pm = c.tabR, c.rRow, c.qv, c.pmQ
			}
			tq := tab[int(row[j])*cs : int(row[j])*cs+cs]
			for cat := 0; cat < cats; cat++ {
				p := pm[cat*ss : (cat+1)*ss]
				co := off + cat*c.catStride
				cr := xv[co : co+s]
				t := tq[cat*s : cat*s+s]
				d := c.dst[co : co+s]
				for a := 0; a < s; a++ {
					r := a * s
					sr := 0.0
					for b := 0; b < s; b++ {
						sr += p[r+b] * cr[b]
					}
					d[a] = t[a] * sr
				}
			}
		default:
			var tvq, tvr []float64
			if c.qTip {
				tvq = alignment.TipVector(c.dtype, c.qRow[j])
			}
			if c.rTip {
				tvr = alignment.TipVector(c.dtype, c.rRow[j])
			}
			for cat := 0; cat < cats; cat++ {
				pq := c.pmQ[cat*ss : (cat+1)*ss]
				pr := c.pmR[cat*ss : (cat+1)*ss]
				co := off + cat*c.catStride
				cq := tvq
				if !c.qTip {
					cq = c.qv[co : co+s]
				}
				cr := tvr
				if !c.rTip {
					cr = c.rv[co : co+s]
				}
				d := c.dst[co : co+s]
				for a := 0; a < s; a++ {
					r := a * s
					sq, sr := 0.0, 0.0
					for b := 0; b < s; b++ {
						sq += pq[r+b] * cq[b]
						sr += pr[r+b] * cr[b]
					}
					d[a] = sq * sr
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
func (c *nvSpanCtx) finishPattern(i, off int) {
	sc := int32(0)
	if !c.qTip {
		sc += c.qs[i]
	}
	if !c.rTip {
		sc += c.rs[i]
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
