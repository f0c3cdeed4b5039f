package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/steal"
	"phylo/internal/tree"
)

// mixedFixture builds a mixed DNA+AA compressed dataset large enough that
// every worker's share splits into several chunks at minChunk 16, plus
// per-partition model templates at the requested category count.
func mixedFixture(t *testing.T, cats int, seed int64) (*alignment.CompressedData, []*model.Model) {
	t.Helper()
	const taxa, dnaLen, aaLen = 10, 600, 180
	dna := randomAlignment(t, taxa, dnaLen, alignment.DNA, seed)
	aa := randomAlignment(t, taxa, aaLen, alignment.AA, seed+1)
	rows := make([][]byte, taxa)
	for i := 0; i < taxa; i++ {
		rows[i] = append(append([]byte{}, dna.Seqs[i]...), aa.Seqs[i]...)
	}
	al, err := alignment.New(taxaNames(taxa), rows)
	if err != nil {
		t.Fatal(err)
	}
	sites := func(lo, hi int) []int {
		out := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}
	parts := []alignment.Partition{
		{Name: "dna", Type: alignment.DNA, Sites: sites(0, dnaLen)},
		{Name: "aa", Type: alignment.AA, Sites: sites(dnaLen, dnaLen+aaLen)},
	}
	d, err := alignment.Compress(al, parts, alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mDNA, err := model.GTR(nil, nil, cats, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	mAA, err := model.SYN20(cats, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	return d, []*model.Model{mDNA, mAA}
}

// evalResult is one full evaluation under a session: total and per-partition
// lnL plus both branch derivatives at the canonical root.
type evalResult struct {
	lnl     float64
	perPart []float64
	d1, d2  []float64
}

func runEvalResult(t *testing.T, eng *Engine) evalResult {
	t.Helper()
	eng.Tree.ClearX()
	root := eng.Tree.Tips[0].Back
	eng.TraverseRoot(root)
	lnl, perPart := evaluate1(eng, root, nil)
	eng.Tree.ClearX()
	nP := eng.NumPartitions()
	z := make([]float64, nP)
	for i := range z {
		z[i] = 0.2
	}
	d1 := make([]float64, nP)
	d2 := make([]float64, nP)
	eng.BranchDerivatives(root, z, nil, nil, d1, d2, nil)
	return evalResult{lnl: lnl, perPart: append([]float64(nil), perPart...), d1: d1, d2: d2}
}

func requireBitIdentical(t *testing.T, label string, a, b evalResult) {
	t.Helper()
	if a.lnl != b.lnl {
		t.Errorf("%s: lnL %v != %v (must be bit-identical)", label, a.lnl, b.lnl)
	}
	for i := range a.perPart {
		if a.perPart[i] != b.perPart[i] {
			t.Errorf("%s: partition %d lnL %v != %v", label, i, a.perPart[i], b.perPart[i])
		}
	}
	for i := range a.d1 {
		if a.d1[i] != b.d1[i] || a.d2[i] != b.d2[i] {
			t.Errorf("%s: partition %d derivatives (%v,%v) != (%v,%v)", label, i, a.d1[i], a.d2[i], b.d1[i], b.d2[i])
		}
	}
}

// TestStealBitIdentityAcrossExecutorsAndToggle is the acceptance test for
// the determinism contract: likelihoods and both branch derivatives are a
// function of the chunk layout only, so they are bit-for-bit identical
// across Pool sessions (real goroutines), Sim (virtual workers taking turns)
// and, at T=1, Sequential, at 1 and 4 Gamma categories on mixed DNA+AA data.
// The weighted schedule is deliberately mispriced so the pack is skewed and
// the pool's workers finish their shares far apart. (The name predates the
// removal of work stealing and of its per-session toggle.)
func TestStealBitIdentityAcrossExecutorsAndToggle(t *testing.T) {
	for _, cats := range []int{1, 4} {
		d, models := mixedFixture(t, cats, int64(100+cats))
		const threads = 3
		sh, err := NewSharedWith(d, cats, threads, BackendAuto)
		if err != nil {
			t.Fatal(err)
		}
		// Misprice DNA 50x so the weighted pack loads one worker far above the
		// others.
		spans := append([]schedule.Span(nil), sh.spans...)
		spans[0].Cost *= 50
		skewed, err := schedule.New(schedule.Weighted, threads, spans)
		if err != nil {
			t.Fatal(err)
		}
		pool, err := parallel.NewPool(threads)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()

		mk := func(exec *parallel.Pool, shd *Shared, opts Options) *Engine {
			tr, err := tree.Random(taxaNames(d.NumTaxa()), 1, tree.RandomOptions{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			ms := make([]*model.Model, len(models))
			for i, m := range models {
				ms[i] = m.Clone()
			}
			eng, err := NewSession(shd, tr, ms, exec, opts)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		opts := Options{Specialize: true, Layout: steal.NewLayout(skewed, 16)}
		resPool := runEvalResult(t, mk(pool.Session(), sh, opts))

		sim, err := parallel.NewSim(threads)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "pool vs sim", resPool, runEvalResult(t, mk(sim, sh, opts)))

		// Sequential (T=1) chunked execution: a different worker count is a
		// different layout, so T=1 agrees with T=3 to reassociation
		// tolerance, not bitwise.
		shSeq, err := NewSharedWith(d, cats, 1, BackendAuto)
		if err != nil {
			t.Fatal(err)
		}
		resSeq := runEvalResult(t, mk(parallel.NewSequential(), shSeq, Options{Specialize: true, Layout: cut(t, shSeq, schedule.Weighted, 16)}))
		if diff := math.Abs(resSeq.lnl - resPool.lnl); diff > 1e-9*math.Abs(resPool.lnl) {
			t.Errorf("cats=%d: T=1 lnL %v vs T=3 %v", cats, resSeq.lnl, resPool.lnl)
		}
	}
}

// walkTally keeps the last region's per-worker newview patterns and span
// bindings.
type walkTally struct{ patterns, binds []float64 }

func (o *walkTally) ObserveRegion(_ parallel.Region, _ time.Time, _ float64, ctxs []parallel.WorkerCtx) {
	o.patterns, o.binds = o.patterns[:0], o.binds[:0]
	for i := range ctxs {
		c := &ctxs[i]
		o.patterns = append(o.patterns, c.Patterns)
		o.binds = append(o.binds, c.SpanTipTip+c.SpanTipInner+c.SpanInner)
	}
}

// TestDrainWalksOwnChunksInOrder is the table test of drain's walk: every
// worker visits its own chunks (the schedule's share of every pattern in
// them), in ascending id order, once per traversal step, and skips the
// chunks of masked-off spans, so each active chunk runs exactly once per
// step. The order is the owner list's, which drain ranges over; the list is
// checked directly (owner lists partition the chunk ids, ascend, and hold
// only the owner's patterns). The visits are checked through a real
// session's regions: per worker, a traversal of n steps processes n times
// its active share and binds each active span it owns once per step (a walk
// that interleaved spans would bind one twice), and an evaluate region
// leaves a partial sum in exactly the active chunks.
func TestDrainWalksOwnChunksInOrder(t *testing.T) {
	d, models := mixedFixture(t, 1, 61)
	if len(d.Parts) != 2 {
		t.Fatalf("fixture has %d partitions; the masks are written for 2", len(d.Parts))
	}
	masks := [][]bool{nil, {true, false}, {false, true}}
	for _, threads := range []int{1, 2, 3, 4, 8} {
		sh, err := NewSharedWith(d, 1, threads, BackendAuto)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []schedule.Strategy{schedule.Cyclic, schedule.Block, schedule.Weighted} {
			for _, minChunk := range []int{1, 16, 64} {
				name := fmt.Sprintf("T%d/%v/min%d", threads, strat, minChunk)
				lay := cut(t, sh, strat, minChunk)
				s := lay.Schedule()

				// The layout: owner lists partition the ids, ascend, and hold
				// only patterns the schedule gives their owner.
				owner := make([]int, s.Total())
				for w := 0; w < threads; w++ {
					for sp := 0; sp < s.NumSpans(); sp++ {
						for _, r := range s.SpanRuns(w, sp) {
							for i := r.Lo; i < r.Hi; i += r.Step {
								owner[i] = w
							}
						}
					}
				}
				seen := make([]int, lay.NumChunks())
				for w := 0; w < threads; w++ {
					prev := -1
					for _, id := range lay.Owned(w) {
						if int(id) <= prev {
							t.Fatalf("%s: worker %d ids not ascending: %d after %d", name, w, id, prev)
						}
						prev = int(id)
						seen[id]++
						c := lay.Chunk(int(id))
						for i := c.Lo; i < c.Hi; i += c.Step {
							if owner[i] != w {
								t.Fatalf("%s: chunk %d on worker %d's list holds pattern %d of worker %d", name, id, w, i, owner[i])
							}
						}
					}
				}
				for id, n := range seen {
					if n != 1 {
						t.Fatalf("%s: chunk %d is on %d owner lists, want 1", name, id, n)
					}
				}

				// The walk through a session's regions.
				sim, err := parallel.NewSim(threads)
				if err != nil {
					t.Fatal(err)
				}
				tally := &walkTally{}
				sim.SetObserver(tally)
				tr, err := tree.Random(taxaNames(d.NumTaxa()), 1, tree.RandomOptions{Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				eng, err := NewSession(sh, tr, []*model.Model{models[0].Clone(), models[1].Clone()}, sim,
					Options{Specialize: true, Layout: lay})
				if err != nil {
					t.Fatal(err)
				}
				root := tr.Tips[0].Back
				steps := tree.ComputeTraversal(nil, root)
				for _, mask := range masks {
					active := func(sp int) bool { return mask == nil || mask[sp] }
					eng.executeSteps(steps, mask)
					for w := 0; w < threads; w++ {
						patterns, binds, last := 0, 0, -1
						for _, id := range lay.Owned(w) {
							c := lay.Chunk(int(id))
							if !active(c.Span) {
								continue
							}
							patterns += c.Run().Len()
							if c.Span != last {
								binds, last = binds+1, c.Span
							}
						}
						if got, want := tally.patterns[w], float64(len(steps)*patterns); got != want {
							t.Errorf("%s mask %v: worker %d processed %v patterns over %d steps, want %v", name, mask, w, got, len(steps), want)
						}
						if got, want := tally.binds[w], float64(len(steps)*binds); got != want {
							t.Errorf("%s mask %v: worker %d bound %v spans over %d steps, want %v", name, mask, w, got, len(steps), want)
						}
					}
					evaluate1(eng, root, mask)
					for id := 0; id < lay.NumChunks(); id++ {
						c := lay.Chunk(id)
						if ran := eng.evalChunk[id] != 0; ran != (active(c.Span) && c.Run().Len() > 0) {
							t.Errorf("%s mask %v: chunk %d of span %d left partial %v", name, mask, id, c.Span, eng.evalChunk[id])
						}
					}
				}
				eng.Release()
			}
		}
	}
}

// TestStealBitIdentityUnderForcedScaling repeats the pool-vs-sim determinism
// check on a deep long-branch DNA tree that drives CLVs through the 2^-256
// scaling path: the scaling exponents are per-pattern state, so the executor
// must not disturb them either. (The name predates the removal of work
// stealing.)
func TestStealBitIdentityUnderForcedScaling(t *testing.T) {
	const taxa = 220
	a := randomAlignment(t, taxa, 60, alignment.DNA, 4242)
	d, err := alignment.Compress(a, alignment.SinglePartition(a, alignment.DNA, ""), alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const threads = 3
	sh, err := NewSharedWith(d, 2, threads, BackendAuto)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := parallel.NewPool(threads)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	sim, err := parallel.NewSim(threads)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]evalResult, 0, 2)
	var scaledEng *Engine
	for i, exec := range []*parallel.Pool{pool.Session(), sim} {
		// High alpha concentrates the Gamma rates near 1 so every category's
		// CLV entries shrink together and the 2^-256 rescale actually fires
		// on the deep long-branch tree (mirrors TestTipCaseScalingEquivalence).
		m, err := model.GTR(nil, nil, 2, 5.0)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tree.Random(taxaNames(taxa), 1, tree.RandomOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewSession(sh, tr, []*model.Model{m}, exec, Options{Specialize: true, Layout: cut(t, sh, schedule.Cyclic, 16)})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range tr.Branches() {
			tree.SetBranchLength(b, 0, 1.4)
		}
		results = append(results, runEvalResult(t, eng))
		if i == 0 {
			scaledEng = eng
		}
	}
	requireBitIdentical(t, "forced-scaling pool vs sim", results[0], results[1])
	fired := false
	for _, sc := range scaledEng.scales {
		for _, v := range sc {
			if v > 0 {
				fired = true
			}
		}
	}
	if !fired {
		t.Fatal("scaling never triggered; fixture misconfigured")
	}
	if err := CheckFinite(results[0].lnl); err != nil {
		t.Fatal(err)
	}
}
