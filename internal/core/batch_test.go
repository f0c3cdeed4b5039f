package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/numeric"

	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/steal"
	"phylo/internal/tree"
)

// The batched-bootstrap acceptance suite: multinomial resampling properties
// (every replicate's weights sum to the original site count, seeded and
// R-invariant determinism) and the bit-identity contract — lane r of a
// batched evaluate/derivative reduction equals a single-replicate run over
// replicate r's weights, exactly, on both backends and at two chunk sizes,
// and a width-1 batch over the dataset's own weights equals the plain
// unbatched Evaluate.

// TestWeightSetMultinomialSums is the resampling property test: for every
// replicate and every partition, the resampled pattern weights must sum to
// the partition's original (uncompressed) site count — a bootstrap replicate
// is a redistribution of the same columns, never more or fewer.
func TestWeightSetMultinomialSums(t *testing.T) {
	d, _ := mixedFixture(t, 4, 41)
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
	d, _ := mixedFixture(t, 1, 42)
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

// TestWeightSetColumnMapDraws holds NewWeightSet's column map to the binary
// search it replaced: the same draws, in the same order, land on the same
// patterns, so every weight is equal, at one lane and at eight.
func TestWeightSetColumnMapDraws(t *testing.T) {
	d, _ := mixedFixture(t, 4, 44)
	for _, R := range []int{1, 8} {
		for _, seed := range []int64{3, 77, -12345} {
			ws, err := NewWeightSet(d, R, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := searchedWeights(d, R, seed)
			for i, w := range want {
				if ws.w[i] != w {
					t.Fatalf("R=%d seed %d: weight %d (pattern %d, replicate %d) is %v, the binary-search draw gives %v", R, seed, i, i/R, i%R, ws.w[i], w)
				}
			}
		}
	}
}

// TestWeightSetDrawsAreInt63n: NewWeightSet takes rand.Int63n's draws
// straight from the source, its rejection bound hoisted out of the draw
// loop and its counts written a replicate column at a time. A reference
// that asks a fresh rand.Rand for each draw must give the same weights bit
// for bit, on a mixed DNA+AA dataset and on a DNA one whose partitions'
// site counts include powers of two (Int63n's mask path) and a single site,
// at widths 1, 3 and 100 and at seeds that include a negative one, 0 and
// one near 2^63.
func TestWeightSetDrawsAreInt63n(t *testing.T) {
	mixed, _ := mixedFixture(t, 4, 45)
	lens := []int{512, 300, 1, 64, 97}
	types := []alignment.DataType{alignment.DNA, alignment.DNA, alignment.DNA, alignment.DNA, alignment.DNA}
	rows := make([][]byte, 8)
	for i, n := range lens {
		a := randomAlignment(t, len(rows), n, alignment.DNA, int64(300+i))
		for k := range rows {
			rows[k] = append(rows[k], a.Seqs[k]...)
		}
	}
	al, err := alignment.New(taxaNames(len(rows)), rows)
	if err != nil {
		t.Fatal(err)
	}
	dna, err := alignment.Compress(al, contiguousParts(lens, types), alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		d    *alignment.CompressedData
	}{{"mixed", mixed}, {"dna", dna}} {
		name, d := c.name, c.d
		for _, R := range []int{1, 3, 100} {
			for _, seed := range []int64{-987654321, 0, 1, 42, math.MaxInt64 - 5} {
				ws, err := NewWeightSet(d, R, seed)
				if err != nil {
					t.Fatal(err)
				}
				want := int63nWeights(d, R, seed)
				for i, w := range want {
					if math.Float64bits(ws.w[i]) != math.Float64bits(w) {
						t.Fatalf("%s R=%d seed %d: weight %d (pattern %d, replicate %d) is %v, rand.Int63n's draws give %v", name, R, seed, i, i/R, i%R, ws.w[i], w)
					}
				}
			}
		}
	}
}

// int63nWeights draws R replicates the plain way: a fresh rand.Rand over
// numeric.NewSource per replicate, one Int63n a resampled column, and each
// draw counted into w at stride R as it happens.
func int63nWeights(d *alignment.CompressedData, R int, seed int64) []float64 {
	w := make([]float64, d.TotalPatterns*R)
	for r := 0; r < R; r++ {
		rng := rand.New(numeric.NewSource(replicateSeed(seed, r)))
		for _, p := range d.Parts {
			var col []int
			for j, wt := range p.Weights {
				for range int(wt) {
					col = append(col, j)
				}
			}
			for range col {
				j := col[rng.Int63n(int64(len(col)))]
				w[(p.Offset+j)*R+r]++
			}
		}
	}
	return w
}

// searchedWeights is NewWeightSet's draw as it was before the column map:
// each uniform column draw finds its pattern by a binary search over the
// cumulative weights.
func searchedWeights(d *alignment.CompressedData, R int, seed int64) []float64 {
	w := make([]float64, d.TotalPatterns*R)
	rng := rand.New(numeric.NewSource(0))
	for r := 0; r < R; r++ {
		rng.Seed(replicateSeed(seed, r))
		for _, p := range d.Parts {
			cum, n := []int{0}, 0
			for _, wt := range p.Weights {
				n += int(wt)
				cum = append(cum, n)
			}
			for k := 0; k < n; k++ {
				j := sort.SearchInts(cum[1:], int(rng.Int63n(int64(n)))+1)
				w[(p.Offset+j)*R+r]++
			}
		}
	}
	return w
}

// TestWeightSetReplicateAndAggregate checks the two derived views: Replicate
// extracts one lane verbatim, Aggregate column-sums all lanes.
func TestWeightSetReplicateAndAggregate(t *testing.T) {
	d, _ := mixedFixture(t, 1, 43)
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

// batchEngine builds a session over the mixed fixture for one backend and
// option set.
func batchEngine(t *testing.T, backend Backend, cats int, exec *parallel.Pool, nThreads int, opts Options, layout func(*Shared) *steal.Layout) *Engine {
	t.Helper()
	d, models := mixedFixture(t, cats, 500)
	sh, err := NewSharedWith(d, cats, nThreads, backend)
	if err != nil {
		t.Fatal(err)
	}
	if layout != nil {
		opts.Layout = layout(sh)
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

// cut is the chunk layout a Dataset builds over sh: the strategy's schedule
// cut at minChunk (0 selects the default size).
func cut(t testing.TB, sh *Shared, strategy schedule.Strategy, minChunk int) *steal.Layout {
	t.Helper()
	s, err := sh.ScheduleFor(strategy)
	if err != nil {
		t.Fatal(err)
	}
	return steal.NewLayout(s, minChunk)
}

// weightedAt is cut at the weighted schedule, for fixtures that build their
// Shared themselves.
func weightedAt(t testing.TB, minChunk int) func(*Shared) *steal.Layout {
	return func(sh *Shared) *steal.Layout { return cut(t, sh, schedule.Weighted, minChunk) }
}

// TestBatchBitIdentity is the batched reductions' acceptance test: on both
// backends, on a pool at two chunk sizes, every replicate
// lnL and both branch derivatives of a batched R-wide run must equal — bit
// for bit — a width-1 Evaluate / BranchDerivatives run over that replicate's
// extracted weights (WeightSet.Replicate).
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
		exec    func() *parallel.Pool
		threads int
		opts    Options
		layout  func(*Shared) *steal.Layout
	}
	configs := []config{
		{"pool", func() *parallel.Pool { return pool.Session() }, threads,
			Options{Specialize: true}, weightedAt(t, 0)},
		{"pool-min16", func() *parallel.Pool { return pool.Session() }, threads,
			Options{Specialize: true}, weightedAt(t, 16)},
		{"sequential", func() *parallel.Pool { return parallel.NewSequential() }, 1,
			Options{Specialize: true}, nil},
	}
	for _, backend := range []Backend{BackendGeneric, BackendFused} {
		for _, cfg := range configs {
			for _, cats := range []int{1, 4} {
				eng := batchEngine(t, backend, cats, cfg.exec(), cfg.threads, cfg.opts, cfg.layout)
				label := backend.String() + "/" + cfg.name
				ws, err := NewWeightSet(eng.Data, R, 4242)
				if err != nil {
					t.Fatal(err)
				}

				// Batched pass: R replicate lnLs from one traversal, then R
				// derivative lanes from one sumtable.
				nP := eng.NumPartitions()
				root := eng.Tree.Tips[0].Back
				eng.TraverseRoot(root)
				totals := make([]float64, R)
				eng.Evaluate(root, nil, ws, totals, nil)
				z := make([]float64, nP)
				for i := range z {
					z[i] = 0.2
				}
				bd1 := make([]float64, nP*R)
				bd2 := make([]float64, nP*R)
				eng.BranchDerivatives(root, z, nil, ws, bd1, bd2, nil)

				// Reference pass per replicate: the width-1 reductions under
				// that replicate's weights, after a traversal of their own.
				d1 := make([]float64, nP)
				d2 := make([]float64, nP)
				var single [1]float64
				for r := 0; r < R; r++ {
					rep := ws.Replicate(r)
					eng.Tree.ClearX()
					eng.TraverseRoot(root)
					eng.Evaluate(root, nil, rep, single[:], nil)
					if single[0] != totals[r] {
						t.Fatalf("%s cats=%d: replicate %d batched lnL %v != single-replicate %v (must be bit-identical)",
							label, cats, r, totals[r], single[0])
					}
					eng.BranchDerivatives(root, z, nil, rep, d1, d2, nil)
					for ip := 0; ip < nP; ip++ {
						if d1[ip] != bd1[ip*R+r] || d2[ip] != bd2[ip*R+r] {
							t.Fatalf("%s cats=%d: replicate %d partition %d derivatives (%v,%v) != batched (%v,%v)",
								label, cats, r, ip, d1[ip], d2[ip], bd1[ip*R+r], bd2[ip*R+r])
						}
					}
				}
			}
		}
	}
}

// TestBatchUniformMatchesPlain pins "unbatched is one lane": a batch of R
// copies of the dataset's own weights must yield R identical lnLs, each
// bit-identical to Evaluate, and on both backends under forced scaling
// Evaluate and BranchDerivatives under the dataset's own weights (nil) must
// equal them under UniformWeightSet(data, 1).
func TestBatchUniformMatchesPlain(t *testing.T) {
	eng := batchEngine(t, BackendFused, 4, parallel.NewSequential(), 1, Options{Specialize: true}, nil)
	plain := eng.LogLikelihood(nil)
	ws, err := UniformWeightSet(eng.Data, 4)
	if err != nil {
		t.Fatal(err)
	}
	totals := make([]float64, 4)
	root := eng.Tree.Tips[0].Back
	eng.TraverseRoot(root)
	eng.Evaluate(root, nil, ws, totals, nil)
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
		eng.TraverseRoot(root)
		var plain, lane [1]float64
		eng.Evaluate(root, nil, nil, plain[:], nil)
		eng.Evaluate(root, nil, one, lane[:], nil)
		if err := CheckFinite(plain[0]); err != nil {
			t.Fatal(err)
		}
		if lane[0] != plain[0] {
			t.Errorf("%v: Evaluate %v != lane 0 under the uniform set %v", backend, plain[0], lane[0])
		}
		z := []float64{0.2}
		d1, d2, b1, b2 := []float64{0}, []float64{0}, []float64{0}, []float64{0}
		eng.BranchDerivatives(root, z, nil, nil, d1, d2, nil)
		eng.BranchDerivatives(root, z, nil, one, b1, b2, nil)
		if d1[0] != b1[0] || d2[0] != b2[0] {
			t.Errorf("%v: BranchDerivatives (%v,%v) != batch lane 0 (%v,%v)", backend, d1[0], d2[0], b1[0], b2[0])
		}
	}
}

// TestBatchValidation exercises the refusals: a weight set over another
// pattern space is a panic from the region entries, as are result buffers of
// the wrong size.
func TestBatchValidation(t *testing.T) {
	eng := batchEngine(t, BackendGeneric, 1, parallel.NewSequential(), 1, Options{Specialize: true}, nil)
	if _, err := NewWeightSet(nil, 3, 1); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := NewWeightSet(eng.Data, 0, 1); err == nil {
		t.Fatal("zero replicate count accepted")
	}
	wrong := &WeightSet{r: 1, patterns: eng.Data.TotalPatterns + 1, w: make([]float64, eng.Data.TotalPatterns+1)}
	wide, err := NewWeightSet(eng.Data, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	root := eng.Tree.Tips[0].Back
	n := eng.NumPartitions()
	z := make([]float64, n)
	for name, call := range map[string]func(){
		"mismatched pattern space":         func() { eng.Evaluate(root, nil, wrong, nil, nil) },
		"width-1 totals for a width-2 set": func() { eng.Evaluate(root, nil, wide, make([]float64, 1), nil) },
		"undersized per-partition buffer":  func() { eng.Evaluate(root, nil, wide, nil, make([]float64, n)) },
		"undersized derivative buffers":    func() { eng.BranchDerivatives(root, z, nil, wide, make([]float64, n), make([]float64, n), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			call()
		}()
	}
}
