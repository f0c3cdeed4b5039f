package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/core"
	"phylo/internal/model"
	"phylo/internal/opt"
	"phylo/internal/parallel"
	"phylo/internal/tree"
)

func taxaNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("t%d", i)
	}
	return out
}

// simulateOnTree generates data that *fits a known tree*, so a search started
// from a scrambled tree has signal to recover: states are evolved down the
// generating topology under JC with the given branch scale.
func simulateOnTree(t *testing.T, gen *tree.Tree, nSites int, seed int64) *alignment.Alignment {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := gen.NumTips()
	seqs := make([][]byte, n)
	for i := range seqs {
		seqs[i] = make([]byte, nSites)
	}
	var evolve func(p *tree.Node, state int, site int)
	evolve = func(p *tree.Node, state int, site int) {
		if p.IsTip() {
			seqs[p.Index][site] = "ACGT"[state]
			return
		}
		for _, child := range []*tree.Node{p.Next.Back, p.Next.Next.Back} {
			ns := jcEvolve(rng, state, childBranch(p, child))
			evolve(child, ns, site)
		}
	}
	root := gen.Tips[0].Back
	for site := 0; site < nSites; site++ {
		state := rng.Intn(4)
		// Evolve down both sides of the root branch.
		tipState := jcEvolve(rng, state, gen.Tips[0].Z[0])
		seqs[0][site] = "ACGT"[tipState]
		evolve(root, state, site)
	}
	a, err := alignment.New(taxaNames(n), seqs)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func childBranch(p, child *tree.Node) float64 {
	if p.Next.Back == child {
		return p.Next.Z[0]
	}
	return p.Next.Next.Z[0]
}

func jcEvolve(rng *rand.Rand, state int, bl float64) int {
	pSame := 0.25 + 0.75*math.Exp(-4.0/3.0*bl)
	if rng.Float64() < pSame {
		return state
	}
	// Uniform over the other three states.
	ns := rng.Intn(3)
	if ns >= state {
		ns++
	}
	return ns
}

func buildSearch(t *testing.T, nTaxa, nSites int, strategy opt.Strategy, exec parallel.Executor, genSeed, startSeed int64) (*Searcher, *core.Engine, *tree.Tree) {
	t.Helper()
	gen, err := tree.Random(taxaNames(nTaxa), 1, tree.RandomOptions{Seed: genSeed, MeanBranchLength: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	a := simulateOnTree(t, gen, nSites, genSeed+1000)
	d, err := alignment.Compress(a, alignment.SinglePartition(a, alignment.DNA, ""), alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.JC69(4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	start, err := tree.Random(taxaNames(nTaxa), 1, tree.RandomOptions{Seed: startSeed})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := newEngine(d, start, []*model.Model{m}, exec, core.Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(strategy)
	cfg.MaxRounds = 3
	cfg.Radius = 4
	return New(eng, cfg), eng, start
}

func TestSearchImprovesLikelihood(t *testing.T) {
	s, eng, _ := buildSearch(t, 10, 200, opt.NewPar, parallel.NewSequential(), 5, 99)
	before := eng.LogLikelihood()
	res, _ := s.Run(context.Background())
	if res.LnL < before {
		t.Errorf("search decreased lnL: %v -> %v", before, res.LnL)
	}
	if res.MovesTried == 0 {
		t.Error("search tried no moves")
	}
	if res.MovesApplied == 0 {
		t.Error("random start vs simulated data: expected at least one improving SPR move")
	}
	// The final likelihood must match a fresh evaluation of the final tree.
	eng.InvalidateCLVs()
	if got := eng.LogLikelihood(); math.Abs(got-res.LnL) > 1e-6*math.Abs(got) {
		t.Errorf("reported lnL %v does not match final tree lnL %v", res.LnL, got)
	}
}

func TestSearchRecoversGeneratingTreeScore(t *testing.T) {
	// Searching from a random start must come close to (or beat) the
	// likelihood of the true generating topology.
	gen, _ := tree.Random(taxaNames(8), 1, tree.RandomOptions{Seed: 7, MeanBranchLength: 0.2})
	a := simulateOnTree(t, gen, 400, 77)
	d, _ := alignment.Compress(a, alignment.SinglePartition(a, alignment.DNA, ""), alignment.CompressOptions{})
	m, _ := model.JC69(4, 1.0)

	// Score the generating tree (with optimized branch lengths).
	genCopy, _ := tree.ParseNewick(tree.WriteNewick(gen, 0), taxaNames(8), 1)
	engTrue, err := newEngine(d, genCopy, []*model.Model{m}, parallel.NewSequential(), core.Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	trueLnL, err := opt.New(engTrue, opt.DefaultConfig(opt.NewPar)).SmoothAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	start, _ := tree.Random(taxaNames(8), 1, tree.RandomOptions{Seed: 1234})
	eng, err := newEngine(d, start, []*model.Model{m.Clone()}, parallel.NewSequential(), core.Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(opt.NewPar)
	cfg.MaxRounds = 6
	cfg.Radius = 6
	res, _ := New(eng, cfg).Run(context.Background())
	if res.LnL < trueLnL-5 {
		t.Errorf("search lnL %v far below generating tree lnL %v", res.LnL, trueLnL)
	}
}

func TestSearchDeterministic(t *testing.T) {
	s1, _, tr1 := buildSearch(t, 9, 150, opt.NewPar, parallel.NewSequential(), 3, 42)
	s2, _, tr2 := buildSearch(t, 9, 150, opt.NewPar, parallel.NewSequential(), 3, 42)
	r1, _ := s1.Run(context.Background())
	r2, _ := s2.Run(context.Background())
	if r1.LnL != r2.LnL || r1.MovesApplied != r2.MovesApplied {
		t.Errorf("search not deterministic: %+v vs %+v", r1, r2)
	}
	if tree.WriteNewick(tr1, 0) != tree.WriteNewick(tr2, 0) {
		t.Error("final topologies differ between identical runs")
	}
}

func TestSearchStrategiesFindSameTree(t *testing.T) {
	// Partitioned, per-partition branch lengths: the configuration in which
	// the strategies cut the work into different regions. The work itself is
	// the same, so the searches agree in every bit.
	sOld, _, trOld := buildPartitionedSearch(t, opt.OldPar)
	sNew, _, trNew := buildPartitionedSearch(t, opt.NewPar)
	rOld, _ := sOld.Run(context.Background())
	rNew, _ := sNew.Run(context.Background())
	if math.Float64bits(rOld.LnL) != math.Float64bits(rNew.LnL) || rOld != rNew {
		t.Errorf("strategies searched differently: %+v vs %+v", rOld, rNew)
	}
	if rOld.MovesApplied == 0 {
		t.Error("no SPR move applied; the comparison never left the start tree")
	}
	bOld, bNew := trOld.Branches(), trNew.Branches()
	for i := range bOld {
		for k := range bOld[i].Z {
			if math.Float64bits(bOld[i].Z[k]) != math.Float64bits(bNew[i].Z[k]) {
				t.Errorf("branch %d slot %d: %v vs %v", i, k, bOld[i].Z[k], bNew[i].Z[k])
			}
		}
	}
	for k := 0; k < trOld.ZSlots; k++ {
		if tree.WriteNewick(trOld, k) != tree.WriteNewick(trNew, k) {
			t.Errorf("slot %d: trees differ between strategies", k)
		}
	}
}

func TestSearchParallelMatchesSequential(t *testing.T) {
	pool, err := parallel.NewPool(3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sSeq, _, _ := buildSearch(t, 8, 120, opt.NewPar, parallel.NewSequential(), 21, 63)
	sPar, _, _ := buildSearch(t, 8, 120, opt.NewPar, pool, 21, 63)
	rSeq, _ := sSeq.Run(context.Background())
	rPar, _ := sPar.Run(context.Background())
	if math.Abs(rSeq.LnL-rPar.LnL) > 1e-6*math.Abs(rSeq.LnL) {
		t.Errorf("parallel search diverged: %v vs %v", rSeq.LnL, rPar.LnL)
	}
	if rSeq.MovesApplied != rPar.MovesApplied {
		t.Errorf("move counts differ: %d vs %d", rSeq.MovesApplied, rPar.MovesApplied)
	}
}

func TestSearchPreservesTreeValidity(t *testing.T) {
	s, eng, tr := buildSearch(t, 10, 100, opt.NewPar, parallel.NewSequential(), 31, 74)
	s.Run(context.Background())
	if err := tr.Validate(); err != nil {
		t.Fatalf("tree invalid after search: %v", err)
	}
	// All branch lengths within bounds.
	for _, b := range tr.Branches() {
		for k, z := range b.Z {
			if z < tree.MinBranchLen || z > tree.MaxBranchLen {
				t.Errorf("branch slot %d has out-of-bounds length %v", k, z)
			}
		}
	}
	_ = eng
}

// buildPartitionedSearch prepares a two-round search over three 100-column
// DNA partitions with per-partition branch lengths: the paper's headline
// configuration.
func buildPartitionedSearch(t *testing.T, strategy opt.Strategy) (*Searcher, *core.Engine, *tree.Tree) {
	t.Helper()
	gen, _ := tree.Random(taxaNames(8), 1, tree.RandomOptions{Seed: 13, MeanBranchLength: 0.15})
	a := simulateOnTree(t, gen, 300, 131)
	parts, err := alignment.UniformPartitions(a, alignment.DNA, 100)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := alignment.Compress(a, parts, alignment.CompressOptions{})
	models := make([]*model.Model, len(d.Parts))
	for i := range models {
		models[i], _ = model.GTR(nil, nil, 4, 0.8)
	}
	start, _ := tree.Random(taxaNames(8), len(d.Parts), tree.RandomOptions{Seed: 17})
	eng, err := newEngine(d, start, models, parallel.NewSequential(), core.Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(strategy)
	cfg.MaxRounds = 2
	return New(eng, cfg), eng, start
}

func TestSearchPartitionedPerPartitionBL(t *testing.T) {
	s, eng, start := buildPartitionedSearch(t, opt.NewPar)
	before := eng.LogLikelihood()
	res, _ := s.Run(context.Background())
	if res.LnL < before {
		t.Errorf("partitioned search decreased lnL %v -> %v", before, res.LnL)
	}
	if err := start.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSearchCancellation: cancelling mid-search returns promptly with the
// context error and a consistent tree whose score matches the reported
// partial result exactly.
func TestSearchCancellation(t *testing.T) {
	s, eng, _ := buildSearch(t, 10, 300, opt.NewPar, parallel.NewSequential(), 47, 48)
	s.Cfg.MaxRounds = 50
	s.Cfg.Epsilon = -1 // never converge: only cancellation can stop it
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Cfg.Progress = func(round int, lnl float64, applied, tried int) {
		if round == 1 {
			cancel()
		}
	}
	res, err := s.Run(ctx)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if res.Rounds >= 4 {
		t.Errorf("search ran %d rounds after cancellation in round 1", res.Rounds)
	}
	if math.IsNaN(res.LnL) || math.IsInf(res.LnL, 0) || res.LnL >= 0 {
		t.Errorf("partial lnL = %v", res.LnL)
	}
	// The tree must be left consistent: re-evaluating from scratch gives
	// exactly the reported score.
	eng.InvalidateCLVs()
	if got := eng.LogLikelihood(); got != res.LnL {
		t.Errorf("tree score %v != reported partial %v", got, res.LnL)
	}
}

// newEngine builds the shared state for (d, the models' category count,
// exec's worker count) and opens one session over it.
func newEngine(d *alignment.CompressedData, tr *tree.Tree, models []*model.Model, exec parallel.Executor, opts core.Options) (*core.Engine, error) {
	sh, err := core.NewSharedWith(d, models[0].NumCats, exec.Threads(), core.BackendAuto)
	if err != nil {
		return nil, err
	}
	return core.NewSession(sh, tr, models, exec, opts)
}
