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

// evaluateLanes is the evaluate region: every site log likelihood of the
// active partitions is computed once and reduced under all R replicate
// weights of ws into per-(chunk, lane) partial sums, which the master then
// reduces in fixed chunk-id order (see the determinism argument in
// chunkexec.go). It returns the per-partition lane sums, indexed
// [partition*R + replicate]; masked partitions stay zero.
func (e *Engine) evaluateLanes(p *tree.Node, act []bool, ws *WeightSet) []float64 {
	if p.IsTip() && p.Back.IsTip() {
		panic("core: Evaluate on a tip-tip branch (2-taxon tree not supported)")
	}
	lay := e.stealRT.Layout()
	R := ws.r
	n := lay.NumChunks()
	buf := chunkPartials(&e.evalChunk, n*R)
	e.runRegion(region{kind: parallel.RegionEvaluate, p: p, ws: ws, out: buf, lanes: R}, act)
	perPart := make([]float64, len(e.Data.Parts)*R)
	for id := 0; id < n; id++ {
		sp := lay.Chunk(id).Span
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
// already holds the P applications; otherwise one applyP per category forms
// them. The accumulation runs in (cat asc, state asc) order — the order every
// backend must preserve for bit-identity.
//
//plk:hotpath
func (c *spanCtx) patternLi(j, off int) float64 {
	s, cats := c.s, c.cats
	li := 0.0
	var tvl, tvr []float64
	if c.a.tip {
		tvl = alignment.TipVector(c.dtype, c.a.row[j])
	}
	if c.b.tab != nil {
		t := c.b.tab[int(c.b.row[j])*c.cs:]
		for cat := 0; cat < cats; cat++ {
			cl := tvl
			if !c.a.tip {
				co := off + cat*c.catStride
				cl = c.a.v[co : co+s]
			}
			tc := t[cat*s : (cat+1)*s]
			for a := 0; a < s; a++ {
				li += c.freqs[a] * cl[a] * tc[a]
			}
		}
		return li
	}
	if c.b.tip {
		tvr = alignment.TipVector(c.dtype, c.b.row[j])
	}
	ss, t := s*s, c.tmp[:s]
	for cat := 0; cat < cats; cat++ {
		co := off + cat*c.catStride
		cl := tvl
		if !c.a.tip {
			cl = c.a.v[co : co+s]
		}
		cr := tvr
		if !c.b.tip {
			cr = c.b.v[co : co+s]
		}
		c.applyP(t, c.b.pm[cat*ss:(cat+1)*ss], cr)
		for a := 0; a < s; a++ {
			li += c.freqs[a] * cl[a] * t[a]
		}
	}
	return li
}

// evaluateGeneric is the layout-aware generic evaluate body: per pattern the
// site log likelihood is computed once and accumulated into out[r] under
// replicate r's weight. Patterns are accumulated in ascending order within
// the run, so a run's partials are invariant to which worker processes it.
//
//plk:hotpath
func (c *spanCtx) evaluateGeneric(run schedule.Run, out []float64) int {
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
func (c *spanCtx) site(i, j int, rawLi float64) float64 {
	li := rawLi * c.invCats
	sc := int32(0)
	if !c.a.tip {
		sc += c.a.sc[i]
	}
	if !c.b.tip {
		sc += c.b.sc[i]
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
// aid. It routes every pattern through the same span binding and kernel (layout
// strides, tip table decision, clamp) as the parallel reduction, so it cannot
// drift from the parallel path on any backend: the stride-aware generic body
// and the fused body accumulate in the same order, so their site values are
// bit-identical and one serial sweep serves every backend.
func (e *Engine) SiteLogLikelihoods(ip int) []float64 {
	root := e.Tree.Tips[0].Back
	e.Traverse(root, false, nil)
	if root.IsTip() && root.Back.IsTip() {
		panic("core: degenerate two-taxon tree")
	}
	part := e.Data.Parts[ip]
	out := make([]float64, part.PatternCount)
	// Runs outside any region, so worker 0's scratch is free to borrow; the
	// counters a bind bumps go nowhere.
	var c spanCtx
	c.bind(e, &region{kind: parallel.RegionEvaluate, p: root}, 0, ip, 0, new(parallel.WorkerCtx))
	c.ensureTables(part.PatternCount)
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
