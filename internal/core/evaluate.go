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

// Evaluate computes the log likelihoods at the virtual root placed on the
// branch (p, p.Back) under the R replicate weight vectors of ws (nil: the
// dataset's own weights, R = 1), in one parallel region: first the partial
// traversal that validates both end CLVs of the active partitions, then
// every site log likelihood of those, computed once and reduced under all R
// weights into per-(share, lane) partial sums, which the master then reduces
// in fixed slot-id order (see the determinism argument in chunkexec.go).
// Results land in caller-owned buffers, either of which may be nil: lnl (R
// entries) gets each replicate's total over the active partitions, per
// (NumPartitions*R, indexed [partition*R + replicate]) the per-partition
// values, zero for masked partitions — what the newPAR optimizers consume.
func (e *Engine) Evaluate(p *tree.Node, active []bool, ws *WeightSet, lnl, per []float64) {
	if p.IsTip() && p.Back.IsTip() {
		panic("core: Evaluate on a tip-tip branch (2-taxon tree not supported)")
	}
	ws = e.weights(ws)
	R, np := ws.r, len(e.Data.Parts)
	if lnl != nil && len(lnl) != R || per != nil && len(per) != np*R {
		panic(fmt.Sprintf("core: evaluate buffers have %d/%d entries, want %d/%d (replicates, partitions x replicates)", len(lnl), len(per), R, np*R))
	}
	if per == nil {
		per = grow(&e.lanes, np*R)
	}
	if R > 1 && e.obsBatchWidth != nil {
		e.obsBatchWidth.Set(float64(R))
	}
	act := e.activeOrAll(active)
	buf := grow(&e.partials, len(e.shares.Slots())*R)
	e.runRegion(region{kind: parallel.RegionEvaluate, steps: e.rootSteps(p, act), stepAct: act, p: p, ws: ws, out: buf, lanes: R}, act)
	e.reduce(buf, R, 0, R, per)
	if lnl != nil {
		e.total(act, per, lnl)
	}
}

// reduce is the master's one lane reduction: lanes lo…lo+R-1 of every
// share's partials (width entries a slot) summed into per[span*R+r], slot by
// slot in id order. It serves an evaluate's lanes and a derivative region's
// d1, d2 and lnL lanes alike.
func (e *Engine) reduce(buf []float64, width, lo, R int, per []float64) {
	clear(per)
	for id, sh := range e.shares.Slots() {
		for r := 0; r < R; r++ {
			per[sh.Span*R+r] += buf[id*width+lo+r]
		}
	}
}

// total sums the per-partition lane sums of the active partitions, in
// ascending partition order, into each replicate's lnl[r].
func (e *Engine) total(act []bool, per, lnl []float64) {
	R := len(lnl)
	clear(lnl)
	for ip := range e.Data.Parts {
		if !act[ip] {
			continue
		}
		for r := range lnl {
			lnl[r] += per[ip*R+r]
		}
	}
}

// patternLi is the per-pattern evaluate kernel of the generic body and of
// the serial per-site sweep core's tests compare the bodies with: the
// (unnormalized) sum-over-categories site likelihood before the log and the
// scaling-exponent correction, read across the category planes. When the q-side tip table is built, its row
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
func (c *spanCtx) evaluateRun(run schedule.Run, out []float64, fused bool) {
	var blk [siteBlock]float64
	for lo := run.Lo; lo < run.Hi; lo += siteBlock {
		n := min(siteBlock, run.Hi-lo)
		j0 := lo - c.partOffset
		if fused {
			c.rawFused4(&blk, n, j0)
		} else {
			for k := 0; k < n; k++ {
				j := j0 + k
				blk[k] = c.patternLi(j, c.base+j*c.s)
			}
		}
		v := blk[:n]
		c.sites(v, lo, c.invCats)
		c.weigh(v, j0, out)
	}
}

// sites turns the raw likelihoods in v, of patterns i0, i0+1, … by global
// index and at most siteBlock of them, into their site log likelihoods: the
// scaling exponents of both branch ends summed per pattern, then SiteLogs
// with the normaliser norm.
//
//plk:hotpath
func (c *spanCtx) sites(v []float64, i0 int, norm float64) {
	var sc [siteBlock]int32
	e := sc[:len(v)]
	for k := range e {
		i := i0 + k
		if !c.a.tip {
			e[k] += c.a.sc[i]
		}
		if !c.b.tip {
			e[k] += c.b.sc[i]
		}
	}
	SiteLogs(v, e, norm)
}

// weigh accumulates the site log likelihoods v, of the partition's patterns
// j0, j0+1, …, into out[r] under replicate r's weight, in that order.
//
//plk:hotpath
func (c *spanCtx) weigh(v []float64, j0 int, out []float64) {
	R, lw := c.R, c.lw
	for k, site := range v {
		j := j0 + k
		for r := range out {
			out[r] += float64(lw[j*R+r] * site)
		}
	}
}

// SiteLogs is the site tail of every evaluate body: it turns raw
// category-summed likelihoods into site log likelihoods in place,
// v[k] = log(v[k]·invCats) + sc[k]·ln(2^-256), where
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

// CheckFinite validates that a log likelihood is a usable number; the
// optimizers call it to fail fast on numerical corruption.
func CheckFinite(lnl float64) error {
	if math.IsNaN(lnl) || math.IsInf(lnl, 0) {
		return fmt.Errorf("core: non-finite log likelihood %v", lnl)
	}
	return nil
}
