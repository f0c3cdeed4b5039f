package core_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/core"
	"phylo/internal/model"
	"phylo/internal/opt"
	"phylo/internal/parallel"
	"phylo/internal/tree"
)

// Recycled session buffers. A session's CLVs, scaling vectors, sumtable and
// scratch are handed from one session of a Shared to the next without being
// cleared, on the invariant that no kernel reads an element its own session
// did not write. These tests pin that invariant by poison, the way
// TestPresentCodeTablesUnderPoison pins the tip-table rows: the parked set is
// filled with NaN floats, huge scaling exponents and set scaling flags, and
// everything a session can compute on it must equal — bit for bit — what the
// first session of a fresh Shared computes.

const recycleTaxa = 7

// recycleData is two DNA partitions and one AA partition of random columns
// with gaps and ambiguity codes, plus per-partition model templates.
func recycleData(t *testing.T) (*alignment.CompressedData, []*model.Model) {
	t.Helper()
	lens := []int{60, 40, 16}
	types := []alignment.DataType{alignment.DNA, alignment.DNA, alignment.AA}
	dna := core.RandomAlignment(t, recycleTaxa, lens[0]+lens[1], alignment.DNA, 41)
	aa := core.RandomAlignment(t, recycleTaxa, lens[2], alignment.AA, 42)
	rows := make([][]byte, recycleTaxa)
	for i := range rows {
		rows[i] = append(append([]byte{}, dna.Seqs[i]...), aa.Seqs[i]...)
	}
	al, err := alignment.New(core.TaxaNames(recycleTaxa), rows)
	if err != nil {
		t.Fatal(err)
	}
	d, err := alignment.Compress(al, core.ContiguousParts(lens, types), alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gtr, err := model.GTR(nil, nil, 4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := model.SYN20(4, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	return d, []*model.Model{gtr, gtr.Clone(), syn}
}

// recycleRig opens identical sessions over one Shared: same tree seed, model
// clones, options, and a view of the same workers.
type recycleRig struct {
	t       *testing.T
	sh      *core.Shared
	models  []*model.Model
	pool    *parallel.Pool
	perPart bool
}

func newRecycleRig(t *testing.T, d *alignment.CompressedData, models []*model.Model, backend core.Backend, threads int, perPart bool) *recycleRig {
	t.Helper()
	sh, err := core.NewSharedWith(d, 4, threads, backend)
	if err != nil {
		t.Fatal(err)
	}
	pool := parallel.NewSequential()
	if threads > 1 {
		// Virtual workers: same chunks, same results, and the thousands of
		// tiny optimizer regions do not each pay a goroutine hand-off (the
		// facade's race soak runs recycling on real pools).
		if pool, err = parallel.NewSim(threads); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(pool.Close)
	return &recycleRig{t: t, sh: sh, models: models, pool: pool, perPart: perPart}
}

func (r *recycleRig) open() *core.Engine {
	r.t.Helper()
	zSlots := 1
	if r.perPart {
		zSlots = len(r.models)
	}
	tr, err := tree.Random(core.TaxaNames(recycleTaxa), zSlots, tree.RandomOptions{Seed: 5})
	if err != nil {
		r.t.Fatal(err)
	}
	return r.openOn(tr)
}

// openOn opens a session on tr with clones of the rig's models.
func (r *recycleRig) openOn(tr *tree.Tree) *core.Engine {
	r.t.Helper()
	ms := make([]*model.Model, len(r.models))
	for i, m := range r.models {
		ms[i] = m.Clone()
	}
	eng, err := core.NewSession(r.sh, tr, ms, r.pool.Session(), core.Options{Specialize: true})
	if err != nil {
		r.t.Fatal(err)
	}
	return eng
}

// openOnPoisoned opens a session that demonstrably holds a poisoned recycled
// set: the one a predecessor on the same tree and model clones scored the
// tree on, so its transition-matrix memo is stamped with exactly the branch
// lengths and model epochs the new session looks up first, over blocks that
// are NaN now, and the tree's X flags, which the new session inherits, claim
// CLVs that are NaN now. The retry is for the race detector's sync.Pool,
// which drops a quarter of all Puts at random, and for a collection emptying
// the pool in between.
func (r *recycleRig) openOnPoisoned(smoothed bool) *core.Engine {
	r.t.Helper()
	for try := 0; try < 200; try++ {
		prev := r.open()
		prev.LogLikelihood(nil)
		token := core.ReleasePoisoned(prev, smoothed)
		eng := r.openOn(prev.Tree)
		if eng.BufferSet() == token {
			return eng
		}
		eng.Release()
	}
	r.t.Fatal("no session ever received the parked buffer set")
	return nil
}

// recycleResult is everything a session computes, as IEEE bits.
type recycleResult struct {
	labels []string
	bits   []uint64
}

func (r *recycleResult) add(label string, vs ...float64) {
	for i, v := range vs {
		r.labels = append(r.labels, fmt.Sprintf("%s[%d]", label, i))
		r.bits = append(r.bits, math.Float64bits(v))
	}
}

func requireSameBits(t *testing.T, label string, want, got recycleResult) {
	t.Helper()
	if len(want.bits) != len(got.bits) {
		t.Fatalf("%s: %d values, want %d", label, len(got.bits), len(want.bits))
	}
	bad := 0
	for i := range want.bits {
		if want.bits[i] != got.bits[i] {
			if bad++; bad <= 5 {
				t.Errorf("%s: %s = %v, fresh session computed %v", label, want.labels[i],
					math.Float64frombits(got.bits[i]), math.Float64frombits(want.bits[i]))
			}
		}
	}
	if bad > 5 {
		t.Errorf("%s: %d values differ in all", label, bad)
	}
}

// branchAndModelState appends every branch length and model parameter.
func branchAndModelState(res *recycleResult, eng *core.Engine) {
	for _, b := range eng.Tree.Branches() {
		res.add("z", b.Z...)
	}
	for ip, m := range eng.Models {
		res.add(fmt.Sprintf("alpha%d", ip), m.Alpha)
		res.add(fmt.Sprintf("rates%d", ip), m.ExRates...)
	}
}

// exerciseSession runs every kind of region through the session: scores,
// site likelihoods, derivatives at the canonical root, then a full model
// optimisation under newPAR and another under oldPAR (whose regions run with
// one partition active at a time, the masks a stale CLV would hide behind).
func exerciseSession(t *testing.T, eng *core.Engine) recycleResult {
	t.Helper()
	var res recycleResult
	perPart := make([]float64, eng.NumPartitions())
	lnl := eng.LogLikelihood(perPart)
	res.add("lnL", lnl)
	res.add("partLnL", perPart...)
	for ip := 0; ip < eng.NumPartitions(); ip++ {
		res.add(fmt.Sprintf("site%d", ip), eng.SiteLogLikelihoods(ip)...)
	}
	root := eng.Tree.Tips[0].Back
	eng.Tree.ClearX()
	n := eng.NumPartitions()
	z, d1, d2 := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range z {
		z[i] = 0.2
	}
	eng.BranchDerivatives(root, z, nil, nil, d1, d2, nil)
	res.add("d1", d1...)
	res.add("d2", d2...)
	for _, strategy := range []opt.Strategy{opt.NewPar, opt.OldPar} {
		cfg := opt.DefaultConfig(strategy)
		cfg.MaxModelRounds = 1
		cfg.OptimizeRates = strategy == opt.NewPar // once is enough; it is most of the run time
		lnl, _, err := opt.New(eng, cfg).OptimizeModel(context.Background())
		if err != nil {
			t.Fatalf("OptimizeModel(%v): %v", strategy, err)
		}
		res.add("opt-"+strategy.String(), lnl)
		branchAndModelState(&res, eng)
	}
	return res
}

// TestRecycledBuffersCannotReachAResult: whatever the predecessor left in the
// buffer set, the next session computes what a first session computes.
func TestRecycledBuffersCannotReachAResult(t *testing.T) {
	d, models := recycleData(t)
	for _, backend := range []core.Backend{core.BackendGeneric, core.BackendFused} {
		for _, threads := range []int{1, 3} {
			for _, perPart := range []bool{false, true} {
				label := fmt.Sprintf("%v/T=%d/perPartBL=%v", backend, threads, perPart)
				fresh := exerciseSession(t, newRecycleRig(t, d, models, backend, threads, perPart).open())

				rig := newRecycleRig(t, d, models, backend, threads, perPart)
				first := rig.open()
				first.LogLikelihood(nil)
				first.Release()
				eng := rig.openOnPoisoned(true)
				requireSameBits(t, label, fresh, exerciseSession(t, eng))
				eng.Release()
			}
		}
	}
}

// TestSessionTrustsNoInheritedFlag: the flags a released session left on
// its tree describe CLVs in a buffer set that is now another session's
// (poisoned here), so a session opened on that tree trusts none of them: its
// first Evaluate, with no flag cleared by the caller, gives a first
// session's bits.
func TestSessionTrustsNoInheritedFlag(t *testing.T) {
	d, models := recycleData(t)
	rig := newRecycleRig(t, d, models, core.BackendFused, 3, false)
	want := rig.open().LogLikelihood(nil)
	eng := rig.openOnPoisoned(false)
	defer eng.Release()
	var lnl [1]float64
	eng.Evaluate(eng.Tree.Tips[0].Back, nil, nil, lnl[:], nil)
	if math.Float64bits(lnl[0]) != math.Float64bits(want) {
		t.Fatalf("first Evaluate on an inherited tree: lnL %v, a first session computes %v", lnl[0], want)
	}
}

// TestLazySumtableOnRecycledSet: a set whose earlier holders only evaluated
// has no sumtable; the first session that smooths a branch makes it, in the
// set, and gets the fresh-session result.
func TestLazySumtableOnRecycledSet(t *testing.T) {
	d, models := recycleData(t)
	smooth := func(eng *core.Engine) recycleResult {
		var res recycleResult
		lnl, err := opt.New(eng, opt.DefaultConfig(opt.NewPar)).SmoothAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res.add("smooth", lnl)
		branchAndModelState(&res, eng)
		return res
	}
	for _, backend := range []core.Backend{core.BackendGeneric, core.BackendFused} {
		fresh := smooth(newRecycleRig(t, d, models, backend, 3, true).open())

		rig := newRecycleRig(t, d, models, backend, 3, true)
		first := rig.open()
		first.LogLikelihood(nil)
		if first.HasSumtable() {
			t.Fatalf("%v: an evaluate-only session allocated a sumtable", backend)
		}
		first.Release()
		eng := rig.openOnPoisoned(false)
		if eng.HasSumtable() {
			t.Fatalf("%v: the set of an evaluate-only session carries a sumtable", backend)
		}
		requireSameBits(t, backend.String(), fresh, smooth(eng))
		if !eng.HasSumtable() {
			t.Fatalf("%v: smoothing left no sumtable in the set", backend)
		}
		eng.Release()
	}
}

// TestReleaseSemantics: Release hands the set back exactly once, a second
// Release is a no-op, and a released engine faults instead of computing.
func TestReleaseSemantics(t *testing.T) {
	d, models := recycleData(t)
	rig := newRecycleRig(t, d, models, core.BackendFused, 1, false)
	eng := rig.open()
	want := eng.LogLikelihood(nil)
	eng.Release()
	eng.Release()

	// Were the set parked twice, two live sessions could end up sharing it.
	a, b := rig.open(), rig.open()
	if a.BufferSet() == b.BufferSet() {
		t.Fatal("two live sessions hold the same buffer set")
	}
	if got := a.LogLikelihood(nil); got != want {
		t.Fatalf("session on the released set: lnL %v, want %v", got, want)
	}
	if got := b.LogLikelihood(nil); got != want {
		t.Fatalf("second session: lnL %v, want %v", got, want)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a kernel call on a released engine did not panic")
			}
		}()
		eng.LogLikelihood(nil)
	}()
}
