package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/tree"
)

// The transition-matrix memo (chunkexec.go): whatever a worker remembers, the
// blocks a span is bound to are the blocks a fresh PMatrices computes.

// memoRig is one two-worker session with a branch length per partition, and
// the means to bind spans the way drain does.
type memoRig struct {
	t   *testing.T
	eng *Engine
	ctx parallel.WorkerCtx
}

// newMemoRig is the rig over a DNA + AA fixture, each partition in a model
// state of its own.
func newMemoRig(t *testing.T) *memoRig {
	t.Helper()
	d, models := mixedFixture(t, 4, 31)
	return newMemoRigOn(t, d, []*model.Model{models[0].Clone(), models[1].Clone()})
}

// newMemoRigOn is the rig over d and models.
func newMemoRigOn(t *testing.T, d *alignment.CompressedData, models []*model.Model) *memoRig {
	t.Helper()
	tr, err := tree.Random(taxaNames(d.NumTaxa()), len(models), tree.RandomOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := parallel.NewSim(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Close)
	eng, err := newEngine(d, tr, models, sim, Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	return &memoRig{t: t, eng: eng}
}

// fresh is PMatrices(z) of partition ip's model as it stands.
func (r *memoRig) fresh(ip int, z float64) []float64 {
	m := r.eng.Models[ip]
	out := make([]float64, m.NumCats*m.States*m.States)
	m.PMatrices(z, out)
	return out
}

func (r *memoRig) requireBlock(label string, ip int, got, want []float64) {
	r.t.Helper()
	if len(got) != len(want) {
		r.t.Fatalf("%s partition %d: bound block has %d entries, want %d", label, ip, len(got), len(want))
	}
	sameBits(r.t, fmt.Sprintf("%s partition %d: bound P vs a fresh PMatrices", label, ip), got, want)
}

// bindStep binds the newview step st over partition ip on worker w and checks
// both ends — after both are bound, which is when a kernel reads them.
func (r *memoRig) bindStep(label string, st tree.TraversalStep, ip, w int) spanCtx {
	r.t.Helper()
	c := r.eng.workers[w].span
	c.bind(&region{kind: parallel.RegionNewview, steps: []tree.TraversalStep{st}}, parallel.RegionNewview, 0, ip, 0, &r.ctx)
	r.requireBlock(label+" end Q", ip, c.a.pm, r.fresh(ip, st.Q.Z[ip]))
	r.requireBlock(label+" end R", ip, c.b.pm, r.fresh(ip, st.R.Z[ip]))
	return c
}

// bindBranch binds the evaluate span of branch p over partition ip.
func (r *memoRig) bindBranch(label string, p *tree.Node, ip, w int) {
	r.t.Helper()
	c := r.eng.workers[w].span
	c.bind(&region{kind: parallel.RegionEvaluate, p: p}, parallel.RegionEvaluate, 0, ip, 0, &r.ctx)
	r.requireBlock(label, ip, c.b.pm, r.fresh(ip, p.Z[ip]))
}

// anyStep returns a newview step of the tree (its children's branch lengths
// are the test's to overwrite).
func (r *memoRig) anyStep() tree.TraversalStep {
	r.eng.Tree.ClearX()
	return tree.ComputeTraversal(nil, r.eng.Tree.Tips[0].Back)[0]
}

// collidingLengths returns two different branch lengths whose blocks share a
// memo slot, found by binding candidates on a session of their own.
func collidingLengths(t *testing.T) (z1, z2 float64) {
	t.Helper()
	r := newMemoRig(t)
	c := r.eng.workers[0].span
	c.bind(&region{kind: parallel.RegionEvaluate, p: r.eng.Tree.Tips[0]}, parallel.RegionEvaluate, 0, 0, 0, &r.ctx)
	first := map[int]float64{}
	for k := 1; k <= 2*pmMemoSlots; k++ {
		z := 0.01 * float64(k)
		slot := c.transition(&c.b, r.eng.Models[0], 0, z, -1, &r.ctx)
		if prev, ok := first[slot]; ok {
			return prev, z
		}
		first[slot] = z
	}
	t.Fatal("no two of 2 x pmMemoSlots branch lengths share a slot")
	return 0, 0
}

func TestTransitionMemoExplicitCases(t *testing.T) {
	t.Run("both ends the same z", func(t *testing.T) {
		r := newMemoRig(t)
		st := r.anyStep()
		for ip := range r.eng.Models {
			tree.SetBranchLength(st.Q, ip, 0.37)
			tree.SetBranchLength(st.R, ip, 0.37)
			r.ctx = parallel.WorkerCtx{}
			c := r.bindStep("same z", st, ip, 0)
			s := r.eng.Models[ip].States
			if &c.a.pm[0] != &c.b.pm[0] || r.ctx.PComputed != 1 || r.ctx.PReused != 1 || c.fixed != float64(4*s*s*s) {
				t.Errorf("partition %d: shared block %v, %v computed, %v reused, %v set-up ops; want one block computed once, reused once, charged once",
					ip, &c.a.pm[0] == &c.b.pm[0], r.ctx.PComputed, r.ctx.PReused, c.fixed)
			}
		}
	})

	t.Run("both ends one slot, different z", func(t *testing.T) {
		z1, z2 := collidingLengths(t)
		r := newMemoRig(t)
		st := r.anyStep()
		tree.SetBranchLength(st.Q, 0, z1)
		tree.SetBranchLength(st.R, 0, z2)
		c := r.bindStep("collision", st, 0, 1)
		if &c.b.pm[0] != &r.eng.workers[1].spare[0] {
			t.Error("the second end did not take the spare block")
		}
		// The first end's block is remembered, the spare's content is not.
		r.ctx = parallel.WorkerCtx{}
		r.bindStep("collision, again", st, 0, 1)
		if r.ctx.PReused != 1 || r.ctx.PComputed != 1 {
			t.Errorf("rebinding: %v reused, %v computed; want the first end reused, the second computed", r.ctx.PReused, r.ctx.PComputed)
		}
		// Alone, the second length takes the slot over; then the first is the one that misses.
		r.bindBranch("z2 alone", st.R, 0, 1)
		r.ctx = parallel.WorkerCtx{}
		r.bindStep("collision, evicted", st, 0, 1)
		if r.ctx.PComputed != 2 || r.ctx.PReused != 0 {
			t.Errorf("after the eviction: %v computed, %v reused; want Q recomputed into the slot and R into the spare", r.ctx.PComputed, r.ctx.PReused)
		}
	})

	t.Run("two partitions, one state", func(t *testing.T) {
		z1, z2 := collidingLengths(t)
		d, ms := sharedStateFixture(t) // partitions 0 and 3 at one epoch
		r := newMemoRigOn(t, d, []*model.Model{ms[0].Clone(), ms[1].Clone(), ms[2].Clone(), ms[3].Clone()})
		st := r.anyStep()
		for _, ip := range []int{0, 3} {
			tree.SetBranchLength(st.Q, ip, z1)
			tree.SetBranchLength(st.R, ip, z2)
		}
		want := func(label string, c spanCtx, computed, reused float64) {
			t.Helper()
			if spare := &c.wk.spare[0]; r.ctx.PComputed != computed || r.ctx.PReused != reused || &c.b.pm[0] != spare {
				t.Errorf("%s: %v computed, %v reused, R in the spare block %v; want %v, %v, true",
					label, r.ctx.PComputed, r.ctx.PReused, &c.b.pm[0] == spare, computed, reused)
			}
			r.ctx = parallel.WorkerCtx{}
		}
		// The first partition fills its table: Q into the slot, R (the same
		// slot) into the spare block.
		first := r.bindStep("first", st, 0, 0)
		want("first", first, 2, 0)
		// The second reads and fills the first's: Q is the very block, R is
		// taken again.
		c := r.bindStep("second", st, 3, 0)
		want("second", c, 1, 1)
		if &c.a.pm[0] != &first.a.pm[0] {
			t.Error("the second partition's Q block is not the first's")
		}
		// The other worker keeps memos of its own.
		want("second, other worker", r.bindStep("second, other worker", st, 3, 1), 2, 0)
		// Once the first partition's model moves, the second reads its own
		// table, empty until now, and keeps it.
		if err := r.eng.Models[0].SetAlpha(0.4); err != nil {
			t.Fatal(err)
		}
		c = r.bindStep("second, the first moved", st, 3, 0)
		want("second, the first moved", c, 2, 0)
		if &c.a.pm[0] == &first.a.pm[0] {
			t.Error("the second partition still reads the first's table after the first moved")
		}
		want("first, moved", r.bindStep("first, moved", st, 0, 0), 2, 0)
		want("second, own table", r.bindStep("second, own table", st, 3, 0), 1, 1)
	})

	t.Run("SetExRate without UpdateEigen", func(t *testing.T) {
		r := newMemoRig(t)
		p := r.eng.Tree.Tips[0]
		for ip, m := range r.eng.Models {
			before := r.fresh(ip, p.Z[ip])
			r.bindBranch("before", p, ip, 0)
			if err := m.SetExRate(1, 2.75); err != nil {
				t.Fatal(err)
			}
			// Stale eigensystem: P is the old one's, from the memo or not.
			r.ctx = parallel.WorkerCtx{}
			c := r.eng.workers[0].span
			c.bind(&region{kind: parallel.RegionEvaluate, p: p}, parallel.RegionEvaluate, 0, ip, 0, &r.ctx)
			r.requireBlock("dirty model", ip, c.b.pm, before)
			if r.ctx.PReused != 1 {
				t.Errorf("partition %d: a setter that leaves P unchanged emptied the memo", ip)
			}
			if err := m.UpdateEigen(); err != nil {
				t.Fatal(err)
			}
			r.ctx = parallel.WorkerCtx{}
			r.bindBranch("after UpdateEigen", p, ip, 0)
			if r.ctx.PComputed != 1 {
				t.Errorf("partition %d: a new eigensystem hit the old one's block", ip)
			}
		}
	})

	t.Run("NaN, negative and signed-zero z", func(t *testing.T) {
		r := newMemoRig(t)
		p := r.eng.Tree.Tips[0]
		for _, z := range []float64{math.NaN(), -0.25, math.Copysign(0, -1), 0} {
			for ip := range r.eng.Models {
				tree.SetBranchLength(p, ip, z)
				r.ctx = parallel.WorkerCtx{}
				r.bindBranch("first", p, ip, 0)
				r.bindBranch("second", p, ip, 0)
				if r.ctx.PComputed != 1 || r.ctx.PReused != 1 {
					t.Errorf("z = %v partition %d: %v computed, %v reused; want keyed by bits (one of each)", z, ip, r.ctx.PComputed, r.ctx.PReused)
				}
			}
		}
	})
}

// TestTransitionMemoProperty drives sessions over the protein / DNA / DNA /
// protein fixture through random sequences of span bindings (newview steps
// and evaluate branches, on either worker), model changes (SetAlpha;
// SetExRate + UpdateEigen), branch-length writes from a pool of six values,
// two of which share a memo slot, and session re-opens whose models put
// partition pairs in one state (a Clone of a partition's model for another of
// its alphabet), and requires every bound block to be the fresh PMatrices by
// bits; every so often the session's score must be the score of a session
// that remembers nothing.
func TestTransitionMemoProperty(t *testing.T) {
	z1, z2 := collidingLengths(t)
	pool := []float64{z1, z2, 0.1, 0.0123, 1.7, 1e-8}
	d, defaults := sharedStateFixture(t) // partitions 0 and 3 protein, 1 and 2 DNA
	r := newMemoRigOn(t, d, []*model.Model{defaults[0].Clone(), defaults[1].Clone(), defaults[2].Clone(), defaults[3].Clone()})
	rng := rand.New(rand.NewSource(77))
	nParts := len(defaults)
	var steps []tree.TraversalStep
	var branches []*tree.Node
	var computed, reused float64
	// open re-opens the session on models (nil: keeps it) and lists its
	// traversal.
	open := func(models []*model.Model) {
		if models != nil {
			computed, reused = computed+r.ctx.PComputed, reused+r.ctx.PReused
			r.ctx = parallel.WorkerCtx{}
			tr := r.eng.Tree
			r.eng.Release()
			var err error
			if r.eng, err = NewSession(r.eng.Shared(), tr, models, r.eng.Exec, Options{Specialize: true}); err != nil {
				t.Fatal(err)
			}
		}
		e := r.eng
		branches = e.Tree.Branches()
		e.Tree.ClearX()
		steps = tree.ComputeTraversal(nil, e.Tree.Tips[0].Back)
	}
	open(nil)

	for op := 0; op < 6000; op++ {
		e := r.eng
		ip, w := rng.Intn(nParts), rng.Intn(2)
		switch k := rng.Intn(10); {
		case k < 3:
			r.bindStep("newview", steps[rng.Intn(len(steps))], ip, w)
		case k < 5:
			r.bindBranch("evaluate", branches[rng.Intn(len(branches))], ip, w)
		case k < 8:
			tree.SetBranchLength(branches[rng.Intn(len(branches))], ip, pool[rng.Intn(len(pool))])
		case k < 9:
			switch rng.Intn(8) {
			case 0: // rare: it moves the partition out of a shared state
				if err := e.Models[ip].SetAlpha(0.3 + 2*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			case 1: // rarer still: a new session with both pairs in one state
				if rng.Intn(2) == 0 {
					ms := make([]*model.Model, nParts)
					for i, m := range e.Models {
						ms[i] = m.Clone()
					}
					ms[3], ms[2] = ms[0].Clone(), ms[1].Clone()
					open(ms)
				}
			}
		default:
			if rng.Intn(4) == 0 {
				m := e.Models[ip]
				if err := m.SetExRate(rng.Intn(len(m.ExRates)-1), 0.2+3*rng.Float64()); err != nil {
					t.Fatal(err)
				}
				if err := m.UpdateEigen(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if op%500 == 499 {
			got := r.eng.LogLikelihood(nil)
			if _, want := scratchScore(t, r.eng); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d: lnL %v with the memo, %v from a session that remembers nothing", op, got, want)
			}
		}
	}
	computed, reused = computed+r.ctx.PComputed, reused+r.ctx.PReused
	if reused < computed || computed < 100 {
		t.Errorf("%v blocks computed, %v reused: the sequence did not exercise both", computed, reused)
	}
}
