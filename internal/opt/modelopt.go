package opt

import (
	"context"
	"fmt"
	"math"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/numeric"
)

// Convergence control of the model optimizer (RAxML-like defaults).
const (
	// brentTol is the relative x tolerance of one Brent iteration.
	brentTol = 1e-4
	// maxBrentIter caps the Brent iterations of one parameter and partition.
	maxBrentIter = 100
	// modelEps ends the outer model-optimization loop once a full round
	// improves the log likelihood by less than this.
	modelEps = 0.1
)

// optimizeAlphas optimizes the Gamma shape parameter of every partition by
// Brent's method: one lockstep Brent loop per partition group, the groups
// one after another. Changing alpha requires a full tree traversal to
// recompute the partition's CLVs (the paper's model-optimization phase), so
// each Brent iteration costs one region, a full traversal and an evaluation,
// restricted to the unconverged partitions of the group — one
// partition's patterns under oldPAR, the whole alignment's under newPAR. Like
// every solve it starts from o.score (brentGroup). A returned error is
// brentGroup's.
func (o *Optimizer) optimizeAlphas() error {
	return o.brent(&o.alpha)
}

// optimizeRatesAll optimizes the free GTR exchangeability rates of all DNA
// partitions (protein partitions keep their fixed empirical-style matrix,
// as in RAxML), one rate index at a time, each like optimizeAlphas.
func (o *Optimizer) optimizeRatesAll() error {
	for ri := range o.rates {
		if err := o.brent(&o.rates[ri]); err != nil {
			return err
		}
	}
	return nil
}

// brent optimizes one per-partition parameter, group by group.
func (o *Optimizer) brent(par *brentParam) error {
	for _, g := range par.groups {
		if o.cancelled() {
			return nil
		}
		if err := o.brentGroup(par, g); err != nil {
			return err
		}
	}
	return nil
}

// brentParam is one per-partition scalar model parameter as the Brent loop
// sees it, built once in New.
type brentParam struct {
	groups [][]int // the partitions that have the parameter, grouped
	get    func(ip int) float64
	set    func(ip int, v float64) error // also refreshes dependent model state
	lo, hi float64
}

func (o *Optimizer) alphaParam() brentParam {
	return brentParam{
		groups: o.groups(func(int) bool { return true }, false),
		get:    func(ip int) float64 { return o.E.Models[ip].Alpha },
		set:    func(ip int, v float64) error { return o.E.Models[ip].SetAlpha(v) },
		lo:     model.MinAlpha,
		hi:     model.MaxAlpha,
	}
}

// rateParam describes free exchangeability ri; its groups are nil when no
// partition has one.
func (o *Optimizer) rateParam(ri int) brentParam {
	return brentParam{
		groups: o.groups(func(ip int) bool {
			m := o.E.Models[ip]
			return m.Type == alignment.DNA && ri < len(m.ExRates)-1
		}, false),
		get: func(ip int) float64 { return o.E.Models[ip].ExRates[ri] },
		set: func(ip int, v float64) error {
			m := o.E.Models[ip]
			if err := m.SetExRate(ri, v); err != nil {
				return err
			}
			return m.UpdateEigen()
		},
		lo: model.MinRate,
		hi: model.MaxRate,
	}
}

// evalPartitions evaluates the masked partitions at the canonical root and
// returns per-partition log likelihoods: the one region of a Brent step, a
// full traversal (the proposals moved the models' epochs) and the reduction.
// Only the masked partitions' CLV slices are recomputed.
func (o *Optimizer) evalPartitions() []float64 {
	o.E.Evaluate(o.E.Tree.Tips[0].Back, o.mask, o.Cfg.Weights, nil, o.per)
	return o.per
}

// brentGroup runs Brent's method on one parameter over one partition group:
// one BrentState per partition advanced in lockstep (each brackets the
// minimum next to the current value, then takes Brent's own steps), one
// region per iteration scoring every unconverged partition's proposal,
// and the convergence boolean vector (the mask) shrinking that region as
// partitions finish. A finished partition stays masked at its last proposal
// until the end pins the whole group to its best-seen values. A state starts
// from the partition's current value and its score there, o.score: SmoothAll
// or the previous solve left it, and no branch has moved since. The solve
// ends without a region too: o.score keeps -FX, the bits a closing region at
// the pin would recompute (a partition's score reads only its own shares),
// and the CLVs stay at the last proposals: the pin moves the models' epochs,
// so the next traversal, the round's SmoothAll, recomputes them all.
// The closing region runs after a cancellation, for a non-finite FX (the state
// reads NaN as +Inf), and after a proposal the model refuses — a failed
// eigendecomposition, which ends the loop like a cancellation: the pin (to
// values the model accepted before) and the closing region run, then the error
// is returned.
func (o *Optimizer) brentGroup(par *brentParam, g []int) error {
	o.enter(g)
	for _, ip := range g {
		o.brents[ip] = numeric.NewBrentState(par.lo, par.get(ip), par.hi, brentTol)
		o.brents[ip].Seed(-o.score[ip])
	}
	var err error
	remaining := len(g)
	for it := 0; it < maxBrentIter && !o.cancelled(); it++ {
		for _, ip := range g {
			if !o.mask[ip] {
				continue
			}
			x, done := o.brents[ip].Next()
			if done {
				o.mask[ip] = false
				remaining--
				continue
			}
			o.x[ip] = x
			if err = par.set(ip, x); err != nil {
				err = fmt.Errorf("opt: partition %d: %w", ip, err)
				break
			}
		}
		if remaining == 0 || err != nil {
			break
		}
		per := o.evalPartitions()
		for _, ip := range g {
			if o.mask[ip] {
				o.brents[ip].Observe(o.x[ip], -per[ip])
			}
		}
	}
	known := !o.cancelled()
	for _, ip := range g {
		if e := par.set(ip, o.brents[ip].X); e != nil && err == nil {
			err = fmt.Errorf("opt: partition %d: %w", ip, e)
		}
		fx := o.brents[ip].FX
		known = known && !math.IsInf(fx, 0) && !math.IsNaN(fx)
	}
	if known && err == nil {
		for _, ip := range g {
			o.score[ip] = -o.brents[ip].FX
		}
		return nil
	}
	o.enter(g)
	per := o.evalPartitions()
	for _, ip := range g {
		o.score[ip] = per[ip] // the next parameter changes nothing these depend on
	}
	return err
}

// OptimizeModel runs the full model-optimization loop on a fixed topology:
// alternating branch-length smoothing, alpha optimization, and (optionally)
// GTR rate optimization until a round improves the log likelihood by less
// than modelEps. It returns the final log likelihood, the rounds used, and
// the context's cancellation error if ctx was cancelled mid-run, or the
// error of a model that refused a proposal — in either case the log
// likelihood is still the exact, usable score of the tree and models as the
// wind-down left them. Invalid Cfg.Weights are an error before any region
// runs. This is the paper's "optimization of ML model parameters (without
// tree search) on a fixed input tree" experiment.
func (o *Optimizer) OptimizeModel(ctx context.Context) (float64, int, error) {
	prev, err := o.SmoothAll(ctx)
	if err != nil {
		return prev, 0, err
	}
	rounds := 0
	for r := 0; r < o.Cfg.MaxModelRounds && !o.cancelled(); r++ {
		rounds++
		// SmoothAll has just scored every partition at the canonical root and
		// no branch moves until it runs again: Brent starts from those scores.
		// The solves' pins move the models' epochs, so the SmoothAll after
		// them recomputes every CLV (the engine's rule; nothing invalidates).
		if o.Cfg.OptimizeRates {
			err = o.optimizeRatesAll()
		}
		if err == nil {
			err = o.optimizeAlphas()
		}
		if err != nil {
			return o.scoreRoot(), rounds, err
		}
		cur, err := o.SmoothAll(ctx)
		if err != nil {
			return cur, rounds, err
		}
		if o.Cfg.Progress != nil {
			o.Cfg.Progress(rounds, cur)
		}
		if cur-prev < modelEps {
			prev = cur
			break
		}
		prev = cur
	}
	return prev, rounds, o.ctxErr()
}
