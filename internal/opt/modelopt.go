package opt

import (
	"context"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/numeric"
	"phylo/internal/tree"
)

// OptimizeAlphas optimizes the Gamma shape parameter of every partition by
// Brent's method. Changing alpha requires a full tree traversal to recompute
// the partition's CLVs (the paper's model-optimization phase), so each Brent
// iteration costs one full-traversal region plus one evaluation region:
//
//	oldPAR: the Brent loops run one partition after another; every iteration
//	        is a pair of regions restricted to that partition's patterns.
//	newPAR: one Brent iteration of *every* unconverged partition is bundled
//	        into a single full-width traversal + evaluation pair, with the
//	        convergence boolean vector retiring finished partitions.
func (o *Optimizer) OptimizeAlphas() {
	if o.Cfg.Strategy == NewPar {
		o.brentSimultaneous(o.alphaParam())
		return
	}
	o.brentPerPartition(o.alphaParam())
}

// OptimizeRatesAll optimizes the free GTR exchangeability rates of all DNA
// partitions (protein partitions keep their fixed empirical-style matrix,
// as in RAxML). Rates are optimized one index at a time, all partitions
// simultaneously under newPAR.
func (o *Optimizer) OptimizeRatesAll() {
	nRates := 0
	for ip := 0; ip < o.E.NumPartitions(); ip++ {
		if o.E.Models[ip].Type == alignment.DNA {
			if r := len(o.E.Models[ip].ExRates) - 1; r > nRates {
				nRates = r
			}
		}
	}
	for ri := 0; ri < nRates && !o.cancelled(); ri++ {
		if o.Cfg.Strategy == NewPar {
			o.brentSimultaneous(o.rateParam(ri))
		} else {
			o.brentPerPartition(o.rateParam(ri))
		}
	}
}

// brentParam abstracts one per-partition scalar model parameter for the
// shared Brent drivers.
type brentParam struct {
	name     string
	eligible func(ip int) bool
	get      func(ip int) float64
	set      func(ip int, v float64) // also refreshes dependent model state
	lo, hi   float64
}

func (o *Optimizer) alphaParam() brentParam {
	return brentParam{
		name:     "alpha",
		eligible: func(int) bool { return true },
		get:      func(ip int) float64 { return o.E.Models[ip].Alpha },
		set: func(ip int, v float64) {
			if err := o.E.Models[ip].SetAlpha(v); err != nil {
				panic("opt: alpha proposal out of bounds: " + err.Error())
			}
		},
		lo: model.MinAlpha,
		hi: model.MaxAlpha,
	}
}

func (o *Optimizer) rateParam(ri int) brentParam {
	return brentParam{
		name: "rate",
		eligible: func(ip int) bool {
			m := o.E.Models[ip]
			return m.Type == alignment.DNA && ri < len(m.ExRates)-1
		},
		get: func(ip int) float64 { return o.E.Models[ip].ExRates[ri] },
		set: func(ip int, v float64) {
			m := o.E.Models[ip]
			if err := m.SetExRate(ri, v); err != nil {
				panic("opt: rate proposal out of bounds: " + err.Error())
			}
			if err := m.UpdateEigen(); err != nil {
				panic("opt: eigendecomposition failed during rate optimization: " + err.Error())
			}
		},
		lo: model.MinRate,
		hi: model.MaxRate,
	}
}

// evalPartitions re-traverses and evaluates the masked partitions at the
// canonical root and returns per-partition log likelihoods. This is the
// region pair whose width distinguishes the two strategies.
func (o *Optimizer) evalPartitions(mask []bool) []float64 {
	root := o.E.Tree.Tips[0].Back
	// The tree topology and root are fixed during model optimization, so the
	// full traversal list is fixed too; only the masked partitions' CLV
	// slices are recomputed.
	o.E.ExecuteSteps(tree.RootTraversal(root, false), mask)
	_, per := o.E.Evaluate(root, mask)
	return per
}

// brentSimultaneous is the newPAR driver: one BrentState per eligible
// partition, all advanced in lockstep.
func (o *Optimizer) brentSimultaneous(par brentParam) {
	n := o.E.NumPartitions()
	states := make([]*numeric.BrentState, n)
	active := make([]bool, n)
	anyActive := false
	for ip := 0; ip < n; ip++ {
		if par.eligible(ip) {
			active[ip] = true
			anyActive = true
		}
	}
	if !anyActive {
		return
	}
	// Seed every state with the likelihood at the current parameter value
	// (one wide region pair).
	per := o.evalPartitions(active)
	for ip := 0; ip < n; ip++ {
		if !active[ip] {
			continue
		}
		states[ip] = numeric.NewBrentState(par.lo, par.get(ip), par.hi, o.Cfg.BrentTol)
		states[ip].Seed(-per[ip])
	}
	proposals := make([]float64, n)
	remaining := countTrue(active)
	for it := 0; it < o.Cfg.MaxBrentIter && remaining > 0 && !o.cancelled(); it++ {
		// Collect one proposal per active partition; retire the converged.
		for ip := 0; ip < n; ip++ {
			if !active[ip] {
				continue
			}
			x, done := states[ip].Next()
			if done {
				par.set(ip, states[ip].X)
				active[ip] = false
				remaining--
				continue
			}
			proposals[ip] = x
		}
		if remaining == 0 {
			break
		}
		for ip := 0; ip < n; ip++ {
			if active[ip] {
				par.set(ip, proposals[ip])
			}
		}
		per = o.evalPartitions(active) // ONE wide region pair for all partitions
		for ip := 0; ip < n; ip++ {
			if active[ip] {
				states[ip].Observe(proposals[ip], -per[ip])
			}
		}
	}
	// Pin any stragglers to their best-seen value.
	final := make([]bool, n)
	for ip := 0; ip < n; ip++ {
		if par.eligible(ip) {
			par.set(ip, states[ip].X)
			final[ip] = true
		}
	}
	o.evalPartitions(final)
}

// brentPerPartition is the oldPAR driver: a complete Brent loop per
// partition, each iteration a narrow region pair.
func (o *Optimizer) brentPerPartition(par brentParam) {
	n := o.E.NumPartitions()
	mask := make([]bool, n)
	for ip := 0; ip < n && !o.cancelled(); ip++ {
		if !par.eligible(ip) {
			continue
		}
		for k := range mask {
			mask[k] = false
		}
		mask[ip] = true
		per := o.evalPartitions(mask)
		st := numeric.NewBrentState(par.lo, par.get(ip), par.hi, o.Cfg.BrentTol)
		st.Seed(-per[ip])
		for it := 0; it < o.Cfg.MaxBrentIter && !o.cancelled(); it++ {
			x, done := st.Next()
			if done {
				break
			}
			par.set(ip, x)
			per = o.evalPartitions(mask) // narrow region pair
			st.Observe(x, -per[ip])
		}
		par.set(ip, st.X)
		o.evalPartitions(mask)
	}
}

// OptimizeModel runs the full model-optimization loop on a fixed topology:
// alternating branch-length smoothing, alpha optimization, and (optionally)
// GTR rate optimization until a round improves the log likelihood by less
// than ModelEps. It returns the final log likelihood, the rounds used, and
// the context's cancellation error if ctx was cancelled mid-run — in which
// case the log likelihood is still the exact, usable score of the tree and
// models as the wind-down left them. This is the paper's "optimization of
// ML model parameters (without tree search) on a fixed input tree"
// experiment.
func (o *Optimizer) OptimizeModel(ctx context.Context) (float64, int, error) {
	o.bind(ctx)
	prev := o.SmoothAll(ctx)
	rounds := 0
	for r := 0; r < o.Cfg.MaxModelRounds && !o.cancelled(); r++ {
		rounds++
		if o.Cfg.OptimizeRates {
			o.OptimizeRatesAll()
		}
		o.OptimizeAlphas()
		cur := o.SmoothAll(ctx)
		if o.Cfg.Progress != nil {
			o.Cfg.Progress(rounds, cur)
		}
		if cur-prev < o.Cfg.ModelEps {
			prev = cur
			break
		}
		prev = cur
	}
	return prev, rounds, o.ctxErr()
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}
