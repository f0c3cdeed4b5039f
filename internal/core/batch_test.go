package core

import (
	"testing"

	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/tree"
)

// The batched-bootstrap acceptance suite: multinomial resampling properties
// (every replicate's weights sum to the original site count, seeded and
// R-invariant determinism) and the bit-identity contract — lane r of a
// batched evaluate/derivative reduction equals a single-replicate run over
// replicate r's weights, exactly, on both backends, with stealing on and
// off, and a width-1 batch over the dataset's own weights equals the plain
// unbatched Evaluate.

// TestWeightSetMultinomialSums is the resampling property test: for every
// replicate and every partition, the resampled pattern weights must sum to
// the partition's original (uncompressed) site count — a bootstrap replicate
// is a redistribution of the same columns, never more or fewer.
func TestWeightSetMultinomialSums(t *testing.T) {
	d, _ := stealFixture(t, 4, 41)
	for _, seed := range []int64{0, 1, 7, 12345} {
		ws, err := NewWeightSet(d, 25, seed)
		if err != nil {
			t.Fatal(err)
		}
		if ws.Replicates() != 25 || ws.NumPatterns() != d.TotalPatterns {
			t.Fatalf("weight set shape %dx%d, want 25x%d", ws.Replicates(), ws.NumPatterns(), d.TotalPatterns)
		}
		for r := 0; r < ws.Replicates(); r++ {
			for ip, p := range d.Parts {
				sum := 0.0
				for j := 0; j < p.PatternCount; j++ {
					w := ws.Weight(p.Offset+j, r)
					if w < 0 {
						t.Fatalf("seed %d replicate %d partition %d pattern %d: negative weight %v", seed, r, ip, j, w)
					}
					sum += w
				}
				if int(sum) != p.SiteCount {
					t.Fatalf("seed %d replicate %d partition %d: weights sum to %v, want site count %d", seed, r, ip, sum, p.SiteCount)
				}
			}
		}
	}
}

// TestWeightSetSeededDeterminism pins the resampling's determinism contract:
// the same (data, seed) yields identical weights; replicate r is a pure
// function of (data, seed, r), independent of the batch width it was drawn
// inside; and a different seed actually changes the draw.
func TestWeightSetSeededDeterminism(t *testing.T) {
	d, _ := stealFixture(t, 1, 42)
	a, err := NewWeightSet(d, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWeightSet(d, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.TotalPatterns; i++ {
		for r := 0; r < 8; r++ {
			if a.Weight(i, r) != b.Weight(i, r) {
				t.Fatalf("same seed, different weights at pattern %d replicate %d", i, r)
			}
		}
	}
	// Replicate 2 of a width-3 draw == replicate 2 of a width-8 draw.
	narrow, err := NewWeightSet(d, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.TotalPatterns; i++ {
		if narrow.Weight(i, 2) != a.Weight(i, 2) {
			t.Fatalf("replicate 2 differs between width-3 and width-8 draws at pattern %d", i)
		}
	}
	// A different seed must change at least one weight.
	c, err := NewWeightSet(d, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < d.TotalPatterns && same; i++ {
		for r := 0; r < 8; r++ {
			if a.Weight(i, r) != c.Weight(i, r) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 99 and 100 produced identical weight sets")
	}
}

// TestWeightSetReplicateAndAggregate checks the two derived views: Replicate
// extracts one lane verbatim, Aggregate column-sums all lanes.
func TestWeightSetReplicateAndAggregate(t *testing.T) {
	d, _ := stealFixture(t, 1, 43)
	ws, err := NewWeightSet(d, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	one := ws.Replicate(3)
	if one.Replicates() != 1 {
		t.Fatalf("extracted replicate has width %d", one.Replicates())
	}
	agg := ws.Aggregate()
	for i := 0; i < d.TotalPatterns; i++ {
		if one.Weight(i, 0) != ws.Weight(i, 3) {
			t.Fatalf("replicate extraction differs at pattern %d", i)
		}
		sum := 0.0
		for r := 0; r < 5; r++ {
			sum += ws.Weight(i, r)
		}
		if agg.Weight(i, 0) != sum {
			t.Fatalf("aggregate differs at pattern %d: %v != %v", i, agg.Weight(i, 0), sum)
		}
	}
}

// batchEngine builds a session over the steal fixture for one backend and
// option set.
func batchEngine(t *testing.T, backend Backend, cats int, exec parallel.Executor, nThreads int, opts Options) *Engine {
	t.Helper()
	d, models := stealFixture(t, cats, 500)
	sh, err := NewSharedWith(d, cats, nThreads, backend)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.Random(taxaNames(d.NumTaxa()), 1, tree.RandomOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewSession(sh, tr, models, exec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestBatchBitIdentity is the batched reductions' acceptance test: on both
// backends, with stealing on, toggled off, and never enabled, every replicate
// lnL and both branch derivatives of a batched R-wide run must equal — bit
// for bit — a single-replicate Evaluate / BranchDerivatives run over that
// replicate's weights (via the weight override) and a width-1 batched run
// over the extracted replicate.
func TestBatchBitIdentity(t *testing.T) {
	const threads = 3
	const R = 6
	pool, err := parallel.NewPool(threads)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	type config struct {
		name    string
		exec    func() parallel.Executor
		threads int
		opts    Options
		steal   bool
	}
	configs := []config{
		{"pool", func() parallel.Executor { return pool.Session() }, threads,
			Options{Specialize: true, Schedule: schedule.Weighted}, false},
		{"pool-steal", func() parallel.Executor { return pool.Session() }, threads,
			Options{Specialize: true, Schedule: schedule.Weighted, Steal: true, MinChunk: 16}, true},
		{"pool-steal-off", func() parallel.Executor { return pool.Session() }, threads,
			Options{Specialize: true, Schedule: schedule.Weighted, Steal: true, MinChunk: 16}, false},
		{"sequential", func() parallel.Executor { return parallel.NewSequential() }, 1,
			Options{Specialize: true}, false},
	}
	for _, backend := range []Backend{BackendGeneric, BackendFused} {
		for _, cfg := range configs {
			for _, cats := range []int{1, 4} {
				eng := batchEngine(t, backend, cats, cfg.exec(), cfg.threads, cfg.opts)
				if cfg.opts.Steal {
					eng.SetStealing(cfg.steal)
				}
				label := backend.String() + "/" + cfg.name
				ws, err := NewWeightSet(eng.Data, R, 4242)
				if err != nil {
					t.Fatal(err)
				}

				// Batched pass: R replicate lnLs from one traversal, then R
				// derivative lanes from one sumtable.
				totals, err := eng.LogLikelihoodBatch(ws)
				if err != nil {
					t.Fatal(err)
				}
				nP := eng.NumPartitions()
				root := eng.Tree.Tips[0].Back
				eng.TraverseRoot(root, false, nil)
				eng.PrepareSumtable(root, nil)
				z := make([]float64, nP)
				for i := range z {
					z[i] = 0.2
				}
				bd1 := make([]float64, nP*R)
				bd2 := make([]float64, nP*R)
				if err := eng.BranchDerivativesBatch(z, nil, ws, bd1, bd2); err != nil {
					t.Fatal(err)
				}

				// Reference pass per replicate: the unbatched reductions under
				// that replicate's weight override, and a width-1 batch.
				d1 := make([]float64, nP)
				d2 := make([]float64, nP)
				for r := 0; r < R; r++ {
					rep := ws.Replicate(r)
					if err := eng.SetWeightOverride(rep); err != nil {
						t.Fatal(err)
					}
					single := eng.LogLikelihood()
					if single != totals[r] {
						t.Fatalf("%s cats=%d: replicate %d batched lnL %v != single-replicate %v (must be bit-identical)",
							label, cats, r, totals[r], single)
					}
					one, err := eng.EvaluateBatch(root, nil, rep)
					if err != nil {
						t.Fatal(err)
					}
					if one[0] != totals[r] {
						t.Fatalf("%s cats=%d: replicate %d width-1 batch lnL %v != batched %v",
							label, cats, r, one[0], totals[r])
					}
					eng.TraverseRoot(root, false, nil)
					eng.PrepareSumtable(root, nil)
					eng.BranchDerivatives(z, nil, d1, d2)
					for ip := 0; ip < nP; ip++ {
						if d1[ip] != bd1[ip*R+r] || d2[ip] != bd2[ip*R+r] {
							t.Fatalf("%s cats=%d: replicate %d partition %d derivatives (%v,%v) != batched (%v,%v)",
								label, cats, r, ip, d1[ip], d2[ip], bd1[ip*R+r], bd2[ip*R+r])
						}
					}
					if err := eng.SetWeightOverride(nil); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestBatchUniformMatchesPlain pins "unbatched is one lane": a batch of R
// copies of the dataset's own weights must yield R identical lnLs, each
// bit-identical to Evaluate, and on both backends under forced scaling
// Evaluate and BranchDerivatives must equal lane 0 of EvaluateBatch and
// BranchDerivativesBatch over UniformWeightSet(data, 1).
func TestBatchUniformMatchesPlain(t *testing.T) {
	eng := batchEngine(t, BackendFused, 4, parallel.NewSequential(), 1, Options{Specialize: true})
	plain := eng.LogLikelihood()
	ws, err := UniformWeightSet(eng.Data, 4)
	if err != nil {
		t.Fatal(err)
	}
	totals, err := eng.LogLikelihoodBatch(ws)
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range totals {
		if v != plain {
			t.Fatalf("uniform batch lane %d lnL %v != plain %v (must be bit-identical)", r, v, plain)
		}
	}

	for _, backend := range []Backend{BackendGeneric, BackendFused} {
		eng := forcedScalingEngine(t, backend)
		one, err := UniformWeightSet(eng.Data, 1)
		if err != nil {
			t.Fatal(err)
		}
		root := eng.Tree.Tips[0].Back
		eng.TraverseRoot(root, false, nil)
		plain, _ := eng.Evaluate(root, nil)
		lane, err := eng.EvaluateBatch(root, nil, one)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckFinite(plain); err != nil {
			t.Fatal(err)
		}
		if lane[0] != plain {
			t.Errorf("%v: Evaluate %v != EvaluateBatch lane 0 %v", backend, plain, lane[0])
		}
		eng.PrepareSumtable(root, nil)
		z := []float64{0.2}
		d1, d2, b1, b2 := []float64{0}, []float64{0}, []float64{0}, []float64{0}
		eng.BranchDerivatives(z, nil, d1, d2)
		if err := eng.BranchDerivativesBatch(z, nil, one, b1, b2); err != nil {
			t.Fatal(err)
		}
		if d1[0] != b1[0] || d2[0] != b2[0] {
			t.Errorf("%v: BranchDerivatives (%v,%v) != batch lane 0 (%v,%v)", backend, d1[0], d2[0], b1[0], b2[0])
		}
	}
}

// TestBatchValidation exercises the error paths: nil and mismatched weight
// sets, bad override widths, wrong derivative buffer sizes.
func TestBatchValidation(t *testing.T) {
	eng := batchEngine(t, BackendGeneric, 1, parallel.NewSequential(), 1, Options{Specialize: true})
	if _, err := eng.LogLikelihoodBatch(nil); err == nil {
		t.Fatal("nil weight set accepted")
	}
	if _, err := NewWeightSet(nil, 3, 1); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := NewWeightSet(eng.Data, 0, 1); err == nil {
		t.Fatal("zero replicate count accepted")
	}
	wrong := &WeightSet{r: 1, patterns: eng.Data.TotalPatterns + 1, w: make([]float64, eng.Data.TotalPatterns+1)}
	if _, err := eng.LogLikelihoodBatch(wrong); err == nil {
		t.Fatal("mismatched pattern space accepted")
	}
	wide, err := NewWeightSet(eng.Data, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetWeightOverride(wide); err == nil {
		t.Fatal("width-2 weight override accepted")
	}
	if err := eng.BranchDerivativesBatch(make([]float64, eng.NumPartitions()), nil, wide,
		make([]float64, 1), make([]float64, 1)); err == nil {
		t.Fatal("undersized derivative buffers accepted")
	}
}
