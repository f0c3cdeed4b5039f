package core

import (
	"testing"

	"phylo/internal/model"
	"phylo/internal/obs"
	"phylo/internal/parallel"
	"phylo/internal/tree"
)

// obsGateEngine builds one engine over the steal fixture with the given
// executor; opts.Metrics/Tracer are passed through.
func obsGateEngine(t *testing.T, exec *parallel.Pool, opts Options) *Engine {
	t.Helper()
	d, models := mixedFixture(t, 4, 11)
	sh, err := NewSharedWith(d, 4, exec.Threads(), BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.Random(taxaNames(d.NumTaxa()), 1, tree.RandomOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*model.Model, len(models))
	for i, m := range models {
		ms[i] = m.Clone()
	}
	eng, err := NewSession(sh, tr, ms, exec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestMetricsZeroAllocsOnNewviewRegion is the CI allocs gate for the
// flush-at-region-boundary design: running the newview region loop with a
// metrics collector attached must allocate exactly as much as running it
// bare. The claim pinned is the delta, metrics-on adds 0 allocs/op; that the
// bare traversal itself allocates nothing is TestRegionEntriesAllocFree's.
func TestMetricsZeroAllocsOnNewviewRegion(t *testing.T) {
	run := func(observed bool) float64 {
		exec := parallel.NewSequential()
		if observed {
			reg := obs.NewRegistry()
			exec.SetObserver(parallel.NewMetricsCollector(reg, "sequential", "fused4", 1, nil))
		}
		eng := obsGateEngine(t, exec, Options{Specialize: true})
		root := eng.Tree.Tips[0].Back
		eng.TraverseRoot(root) // warm up tables and one-time laziness
		return testing.AllocsPerRun(50, func() {
			eng.Tree.ClearX()
			eng.TraverseRoot(root)
		})
	}
	bare := run(false)
	observed := run(true)
	if observed != bare {
		t.Fatalf("metrics-on newview region allocates %v allocs/op vs %v bare; want equal (0 added)", observed, bare)
	}
}

// TestEngineObsFamilies runs a likelihood and a batched evaluation with a
// registry attached and checks the engine-level families appear with sane
// values.
func TestEngineObsFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	exec := parallel.NewSequential()
	exec.SetObserver(parallel.NewMetricsCollector(reg, "sequential", "generic", 1, nil))
	eng := obsGateEngine(t, exec, Options{Specialize: true, Metrics: reg})
	eng.LogLikelihood(nil)
	ws, err := NewWeightSet(eng.Data, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	root := eng.Tree.Tips[0].Back
	eng.Tree.ClearX()
	eng.TraverseRoot(root)
	eng.Evaluate(root, nil, ws, make([]float64, 3), nil)
	got := map[string]float64{}
	for _, s := range reg.Snapshot() {
		key := s.Name
		for _, l := range s.Labels {
			key += "|" + l.Key + "=" + l.Value
		}
		got[key] = s.Value
	}
	if got["plk_batch_width"] != 3 {
		t.Errorf("plk_batch_width = %v, want 3", got["plk_batch_width"])
	}
	if got["plk_kernel_patterns_total|backend=generic"] <= 0 {
		t.Errorf("plk_kernel_patterns_total = %v, want > 0", got["plk_kernel_patterns_total|backend=generic"])
	}
	if got["plk_regions_total|kind=newview|exec=sequential"] <= 0 {
		t.Errorf("plk_regions_total{newview} = %v, want > 0", got["plk_regions_total|kind=newview|exec=sequential"])
	}
}
