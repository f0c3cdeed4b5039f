package opt

import (
	"context"
	"math"
	"testing"

	"phylo/internal/core"
	"phylo/internal/parallel"
)

// TestWeightedUniformMatchesUnweighted pins the override plumbing: optimizing
// under a width-1 uniform WeightSet (the dataset's own weights, re-expressed
// as an override) must reproduce the unweighted optimization bit for bit —
// same values flow through the same reductions.
func TestWeightedUniformMatchesUnweighted(t *testing.T) {
	plain := buildFixture(t, 8, 120, 40, true, parallel.NewSequential(), 31)
	want, _, err := New(plain.eng, DefaultConfig(NewPar)).OptimizeModel(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	weighted := buildFixture(t, 8, 120, 40, true, parallel.NewSequential(), 31)
	cfg := DefaultConfig(NewPar)
	uni, err := core.UniformWeightSet(weighted.d, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Weights = uni
	got, _, err := New(weighted.eng, cfg).OptimizeModel(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("uniform-weighted optimum %v != unweighted optimum %v", got, want)
	}
}

// TestWeightedAggregateIdentity exercises the shared-branch-length bootstrap
// mode end to end: optimize branch lengths once against the batch's aggregate
// weights, then check the weighted score equals the sum of the per-replicate
// batched scores — the aggregate identity the mode rests on.
func TestWeightedAggregateIdentity(t *testing.T) {
	fx := buildFixture(t, 8, 120, 40, false, parallel.NewSequential(), 32)
	ws, err := core.NewWeightSet(fx.d, 5, 77)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(NewPar)
	cfg.Weights = ws.Aggregate()
	o := New(fx.eng, cfg)
	weighted := smooth(t, o, context.Background())

	lanes, err := fx.eng.LogLikelihoodBatch(ws)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range lanes {
		sum += l
	}
	if rel := math.Abs(sum-weighted) / math.Abs(weighted); rel > 1e-10 {
		t.Fatalf("sum of per-replicate lnLs %v vs aggregate-weighted lnL %v (rel %v)", sum, weighted, rel)
	}
	// The aggregate weights total R times the site count, so the weighted
	// objective is far from the unweighted one — make sure the override
	// really was in force.
	fx.eng.SetWeightOverride(nil)
	plain := fx.eng.LogLikelihood()
	if math.Abs(plain-weighted) < 1 {
		t.Fatalf("weighted lnL %v suspiciously close to unweighted %v; override not applied?", weighted, plain)
	}
}

// TestWeightedInvalidErrors: weight sets the engine refuses — width != 1, or
// another dataset's pattern count — are an error from every entry point, before
// any region runs, and leave the engine unweighted and usable.
func TestWeightedInvalidErrors(t *testing.T) {
	fx := buildFixture(t, 6, 60, 60, false, parallel.NewSequential(), 33)
	other := buildFixture(t, 6, 90, 90, false, parallel.NewSequential(), 34)
	wide, err := core.UniformWeightSet(fx.d, 2)
	if err != nil {
		t.Fatal(err)
	}
	short, err := core.UniformWeightSet(other.d, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := fx.eng.LogLikelihood()
	regions := fx.eng.Exec.Stats().Regions
	for name, ws := range map[string]*core.WeightSet{"width 2": wide, "wrong length": short} {
		cfg := DefaultConfig(NewPar)
		cfg.Weights = ws
		if lnl, err := New(fx.eng, cfg).SmoothAll(context.Background()); err == nil || !math.IsNaN(lnl) {
			t.Errorf("%s: SmoothAll = %v, %v; want NaN and an error", name, lnl, err)
		}
		if _, rounds, err := New(fx.eng, cfg).OptimizeModel(context.Background()); err == nil || rounds != 0 {
			t.Errorf("%s: OptimizeModel ran %d rounds, error %v; want 0 and an error", name, rounds, err)
		}
	}
	if got := fx.eng.Exec.Stats().Regions; got != regions {
		t.Errorf("the refused calls ran %d regions, want none", got-regions)
	}
	if got := fx.eng.LogLikelihood(); got != want {
		t.Errorf("after the refusals lnL = %v, want the unweighted %v", got, want)
	}
}
