package core

import (
	"fmt"
	"math"

	"phylo/internal/alignment"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// Evaluate computes the log likelihood at the virtual root placed on the
// branch (p, p.Back). Both end CLVs must already be valid and oriented
// towards the branch (use TraverseRoot). It returns the total over active
// partitions and the per-partition values (zero entries for masked
// partitions). The per-pattern reduction is one parallel region — the
// width-1 case of evaluateLanes over the dataset's own weights (or the
// session's override); the per-partition sums are what the newPAR optimizers
// consume.
func (e *Engine) Evaluate(p *tree.Node, active []bool) (float64, []float64) {
	act := e.activeOrAll(active)
	perPart := e.evaluateLanes(p, act, e.ownWeights())
	total := 0.0
	for ip, v := range perPart {
		if act[ip] {
			total += v
		}
	}
	return total, perPart
}

// evaluateLanes is the evaluate region driver: every site log likelihood of
// the active partitions is computed once and reduced under all R replicate
// weights of ws into per-(chunk, lane) partial sums, which the master then
// reduces in fixed chunk-id order (see the determinism argument in
// chunkexec.go). It returns the per-partition lane sums, indexed
// [partition*R + replicate]; masked partitions stay zero.
func (e *Engine) evaluateLanes(p *tree.Node, act []bool, ws *WeightSet) []float64 {
	q := p.Back
	if p.IsTip() && q.IsTip() {
		panic("core: Evaluate on a tip-tip branch (2-taxon tree not supported)")
	}
	rt := e.stealRT
	R := ws.r
	n := rt.Layout().NumChunks()
	buf := chunkPartials(&e.evalChunk, n*R)
	rt.Load(act)
	e.Exec.Run(parallel.RegionEvaluate, func(w int, ctx *parallel.WorkerCtx) {
		pm := e.pmScratch[w][0]
		ops := 0.0
		var c evalSpanCtx
		cached := -1
		for {
			id := rt.Next(w, ctx)
			if id < 0 {
				break
			}
			ch := rt.Layout().Chunk(id)
			if ch.Span != cached {
				e.prepareEvalSpan(&c, p, q, ch.Span, w, pm, ws)
				cached = ch.Span
			}
			c.ensureTable(ch.Share)
			ops += c.takeOps(c.kern.Evaluate(&c, ch.Run(), buf[id*R:(id+1)*R]))
		}
		ctx.Ops += ops
	})
	rt.Finish()
	perPart := make([]float64, len(e.Data.Parts)*R)
	for id := 0; id < n; id++ {
		sp := rt.Layout().Chunk(id).Span
		for r := 0; r < R; r++ {
			perPart[sp*R+r] += buf[id*R+r]
		}
	}
	return perPart
}

// patternLi is the per-pattern evaluate kernel shared by the parallel
// reduction and SiteLogLikelihoods: the (unnormalized) sum-over-categories
// site likelihood before the log and the scaling-exponent correction, read
// through the layout strides. When the q-side tip table is built, its row
// already holds the P applications. The accumulation runs in (cat asc, state
// asc) order — the order every backend must preserve for bit-identity.
//
//plk:hotpath
func (c *evalSpanCtx) patternLi(j, off int) float64 {
	s, cats := c.s, c.cats
	li := 0.0
	var tvl, tvr []float64
	if c.pTip {
		tvl = alignment.TipVector(c.dtype, c.pRow[j])
	}
	if c.qTab != nil {
		t := c.qTab[int(c.qRow[j])*c.cs:]
		for cat := 0; cat < cats; cat++ {
			cl := tvl
			if !c.pTip {
				co := off + cat*c.catStride
				cl = c.pv[co : co+s]
			}
			tc := t[cat*s : (cat+1)*s]
			for a := 0; a < s; a++ {
				li += c.freqs[a] * cl[a] * tc[a]
			}
		}
		return li
	}
	if c.qTip {
		tvr = alignment.TipVector(c.dtype, c.qRow[j])
	}
	ss := s * s
	for cat := 0; cat < cats; cat++ {
		pc := c.pm[cat*ss : (cat+1)*ss]
		co := off + cat*c.catStride
		cl := tvl
		if !c.pTip {
			cl = c.pv[co : co+s]
		}
		cr := tvr
		if !c.qTip {
			cr = c.qv[co : co+s]
		}
		for a := 0; a < s; a++ {
			row := a * s
			t := 0.0
			for b := 0; b < s; b++ {
				t += pc[row+b] * cr[b]
			}
			li += c.freqs[a] * cl[a] * t
		}
	}
	return li
}

// evalSpanCtx is the per-(partition, worker) evaluate setup, re-used across
// consecutive chunks of one span. See nvSpanCtx.
type evalSpanCtx struct {
	e          *Engine
	ip, w      int
	s, cats    int
	cs         int
	base       int
	patStride  int // layout: offset between consecutive patterns
	catStride  int // layout: offset between consecutive categories
	partOffset int
	dtype      alignment.DataType
	invCats    float64
	pTip, qTip bool
	pv, qv     []float64
	psc, qsc   []int32
	pRow, qRow []byte
	qCodes     []byte // codes present in qRow, ascending (nil for an inner q)
	pm         []float64
	freqs      []float64
	qTab       []float64
	kern       KernelBackend
	fixed      float64

	// Replicate lanes of the bound WeightSet: R lanes per pattern, lw[j*R+r]
	// the weight of the span's j-th pattern under replicate r.
	R  int
	lw []float64
}

// prepareEvalSpan binds c to (root branch, partition, worker, weights): the
// p-side transition matrices into the worker's scratch, the CLV/tip views of
// both branch ends, and the partition's lanes of ws.
func (e *Engine) prepareEvalSpan(c *evalSpanCtx, p, q *tree.Node, ip, w int, pm []float64, ws *WeightSet) {
	part := e.Data.Parts[ip]
	s := part.Type.States()
	cats := e.numCats
	m := e.Models[ip]
	m.PMatrices(p.Z[e.slotOf(ip)], pm[:cats*s*s])
	*c = evalSpanCtx{
		e: e, ip: ip, w: w, s: s, cats: cats, cs: cats * s,
		base: e.layout.Base(ip), patStride: e.layout.PatStride(ip), catStride: e.layout.CatStride(ip),
		partOffset: part.Offset, dtype: part.Type,
		invCats: 1.0 / float64(cats),
		pTip:    p.IsTip(), qTip: q.IsTip(),
		pm: pm, freqs: m.Freqs,
		kern:  e.kernels[ip],
		fixed: float64(cats * s * s * s), // per-worker P-matrix setup
		R:     ws.r, lw: ws.lanes(part.Offset),
	}
	if c.pTip {
		c.pRow = part.Tips[p.Index]
	} else {
		c.pv = e.clv(p.Index)
		c.psc = e.scale(p.Index)
	}
	if c.qTip {
		c.qRow, c.qCodes = part.Tips[q.Index], part.Codes[q.Index]
	} else {
		c.qv = e.clv(q.Index)
		c.qsc = e.scale(q.Index)
	}
}

// ensureTable builds the q-side tip lookup table when a share of this many
// patterns amortizes it (see nvSpanCtx.ensureTables).
func (c *evalSpanCtx) ensureTable(patterns int) {
	e := c.e
	if !e.Specialize || !c.qTip || c.qTab != nil || !tipTablesAmortize(patterns, c.qCodes, nil) {
		return
	}
	c.qTab = buildTipTable(e.tipScratch[c.w][0], c.dtype, c.qCodes, c.pm[:c.cats*c.s*c.s], c.s, c.cats)
	c.fixed += opsTipTable(c.s, c.cats, len(c.qCodes))
}

// takeOps prices count processed patterns of R-lane reduction and claims the
// setup charge.
func (c *evalSpanCtx) takeOps(count int) float64 {
	ops := float64(count)*opsEvaluateCase(c.s, c.cats, c.qTab != nil, c.R) + c.fixed
	c.fixed = 0
	return ops
}

// processGeneric is the layout-aware generic evaluate body: per pattern the
// site log likelihood is computed once and accumulated into out[r] under
// replicate r's weight. Patterns are accumulated in ascending order within
// the run, so a run's partials are invariant to which worker processes it.
//
//plk:hotpath
func (c *evalSpanCtx) processGeneric(run schedule.Run, out []float64) int {
	R, lw := c.R, c.lw
	count := 0
	for i := run.Lo; i < run.Hi; i += run.Step {
		j := i - c.partOffset
		site := c.site(i, j, c.patternLi(j, c.base+j*c.patStride))
		for r := range out {
			out[r] += lw[j*R+r] * site
		}
		count++
	}
	return count
}

// site turns one pattern's raw category-summed likelihood into its site log
// likelihood: normalize by the category count, fold in the scaling exponents
// of both branch ends, clamp, and take the log. It is the shared tail of
// every backend's evaluate body and of SiteLogLikelihoods.
//
//plk:hotpath
func (c *evalSpanCtx) site(i, j int, rawLi float64) float64 {
	li := rawLi * c.invCats
	sc := int32(0)
	if !c.pTip {
		sc += c.psc[i]
	}
	if !c.qTip {
		sc += c.qsc[i]
	}
	if li <= 0 || math.IsNaN(li) {
		// Fully incompatible data cannot occur with strictly positive P
		// matrices; guard against pathological rounding anyway.
		li = math.SmallestNonzeroFloat64
	}
	return math.Log(li) + float64(sc)*logMinLik
}

// SiteLogLikelihoods returns the per-pattern log likelihoods (unweighted) of
// one partition at the canonical root; primarily a debugging and testing
// aid. It routes every pattern through the same evalSpanCtx kernel (layout
// strides, tip table decision, clamp) as the parallel reduction, so it cannot
// drift from the parallel path on any backend: the stride-aware generic body
// and the fused body accumulate in the same order, so their site values are
// bit-identical and one serial sweep serves every backend.
func (e *Engine) SiteLogLikelihoods(ip int) []float64 {
	root := e.Tree.Tips[0].Back
	e.Traverse(root, false, nil)
	q := root.Back
	if root.IsTip() && q.IsTip() {
		panic("core: degenerate two-taxon tree")
	}
	part := e.Data.Parts[ip]
	out := make([]float64, part.PatternCount)
	// Runs outside any region, so worker 0's scratch is free to borrow.
	var c evalSpanCtx
	e.prepareEvalSpan(&c, root, q, ip, 0, e.pmScratch[0][0], e.ownWeights())
	c.ensureTable(part.PatternCount)
	for j := 0; j < part.PatternCount; j++ {
		i := part.Offset + j
		out[j] = c.site(i, j, c.patternLi(j, c.base+j*c.patStride))
	}
	return out
}

// CheckFinite validates that a log likelihood is a usable number; the
// optimizers call it to fail fast on numerical corruption.
func CheckFinite(lnl float64) error {
	if math.IsNaN(lnl) || math.IsInf(lnl, 0) {
		return fmt.Errorf("core: non-finite log likelihood %v", lnl)
	}
	return nil
}
