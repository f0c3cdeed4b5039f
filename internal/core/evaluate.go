package core

import (
	"fmt"
	"math"

	"phylo/internal/alignment"
	"phylo/internal/cpufeat"
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
	lay := e.chunks
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
// across the category planes. When the q-side tip table is built, its row
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

// siteBlock is how many patterns an evaluate body hands the site pass at a
// time: whole 4-lane quartets, in a block on the worker's stack.
const siteBlock = 32

// evaluateRun is the pattern loop of both evaluate bodies, siteBlock patterns
// at a time: the block's raw category-summed likelihoods (the fused body's
// four chains, rawFused4, or the generic body's patternLi one pattern at a
// time), one site pass over them (sites), then each site log likelihood
// accumulated into out[r] under replicate r's weight. Patterns are
// accumulated in ascending order within the run, so a run's partials are
// invariant to which worker processes it and to the block size.
//
//plk:hotpath
func (c *spanCtx) evaluateRun(run schedule.Run, out []float64, fused bool) int {
	var blk [siteBlock]float64
	R, lw, step := c.R, c.lw, run.Step
	count := 0
	for lo := run.Lo; lo < run.Hi; lo += siteBlock * step {
		n := min(siteBlock, (run.Hi-lo+step-1)/step)
		j0 := lo - c.partOffset
		if fused {
			c.rawFused4(&blk, n, j0, step)
		} else {
			for k := 0; k < n; k++ {
				j := j0 + k*step
				blk[k] = c.patternLi(j, c.base+j*c.s)
			}
		}
		v := blk[:n]
		c.sites(v, lo, step)
		for k, site := range v {
			j := j0 + k*step
			for r := range out {
				out[r] += float64(lw[j*R+r] * site)
			}
		}
		count += n
	}
	return count
}

// sites turns the raw likelihoods in v, of patterns i0, i0+step, … by global
// index and at most siteBlock of them, into their site log likelihoods: the
// scaling exponents of both branch ends summed per pattern, then SiteLogs.
//
//plk:hotpath
func (c *spanCtx) sites(v []float64, i0, step int) {
	var sc [siteBlock]int32
	e := sc[:len(v)]
	for k := range e {
		i := i0 + k*step
		if !c.a.tip {
			e[k] += c.a.sc[i]
		}
		if !c.b.tip {
			e[k] += c.b.sc[i]
		}
	}
	SiteLogs(v, e, c.invCats)
}

// SiteLogs is the site tail of every evaluate body and of
// SiteLogLikelihoods: it turns raw category-summed likelihoods into site log
// likelihoods in place, v[k] = log(v[k]·invCats) + sc[k]·ln(2^-256), where
// sc[k] is pattern k's scaling exponent summed over both branch ends and a
// normalized likelihood that is not positive, or NaN, is clamped to the
// smallest subnormal. The logs of whole quartets run on a 4-lane kernel where
// the host has one (SiteLogKernel), the rest one at a time; the kernel is
// math.Log lane for lane, so the bits are the same either way. len(sc) must
// be at least len(v).
//
//plk:hotpath
func SiteLogs(v []float64, sc []int32, invCats float64) {
	sc = sc[:len(v)]
	for k, raw := range v {
		li := raw * invCats
		if li <= 0 || math.IsNaN(li) {
			// Fully incompatible data cannot occur with strictly positive P
			// matrices; guard against pathological rounding anyway.
			li = math.SmallestNonzeroFloat64
		}
		v[k] = li
	}
	for k := logsVec(v); k < len(v); k++ {
		v[k] = math.Log(v[k])
	}
	for k, e := range sc {
		v[k] += float64(float64(e) * logMinLik)
	}
}

// SiteLogKernel is SiteLogs' 4-lane log, sitelog_amd64.s: its integer steps
// are AVX2.
var SiteLogKernel = cpufeat.NewKernel("site log (AVX2)", cpufeat.AVX2)

// SiteLogLikelihoods returns the per-pattern log likelihoods (unweighted) of
// one partition at the canonical root; primarily a debugging and testing
// aid. It routes every pattern through the same span binding and kernel (layout
// strides, tip table decision, site pass) as the parallel reduction, so it
// cannot drift from the parallel path on any backend: the stride-aware generic
// body and the fused body accumulate in the same order, so their site values
// are bit-identical and one serial sweep serves every backend.
func (e *Engine) SiteLogLikelihoods(ip int) []float64 {
	root := e.Tree.Tips[0].Back
	e.Traverse(root, false, nil)
	if root.IsTip() && root.Back.IsTip() {
		panic("core: degenerate two-taxon tree")
	}
	part := e.Data.Parts[ip]
	out := make([]float64, part.PatternCount)
	// Runs outside any region, so worker 0's record is free to borrow; the
	// counters a bind bumps go nowhere.
	c := &e.workers[0].span
	c.bind(&region{kind: parallel.RegionEvaluate, p: root}, 0, ip, new(parallel.WorkerCtx))
	c.ensureTables(part.PatternCount)
	for lo := 0; lo < part.PatternCount; lo += siteBlock {
		v := out[lo:min(part.PatternCount, lo+siteBlock)]
		for k := range v {
			j := lo + k
			v[k] = c.patternLi(j, c.base+j*c.s)
		}
		c.sites(v, part.Offset+lo, 1)
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
