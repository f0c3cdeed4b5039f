package search

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
	"phylo/internal/seqsim"
	"phylo/internal/tree"
)

// orientCase is one configuration of the CLV orientation tests: the grid of
// tree sizes × DNA or DNA+protein partitions × strategy × joint or
// per-partition branch lengths the search's bit-identity was checked on,
// on one worker unless threads says more.
type orientCase struct {
	taxa    int
	mixed   bool
	strat   opt.Strategy
	perPart bool
	threads int
}

func (c orientCase) String() string {
	data := "dna"
	if c.mixed {
		data = "mixed"
	}
	bl := "joint"
	if c.perPart {
		bl = "perpart"
	}
	name := fmt.Sprintf("d%d_%s_%v_%s", c.taxa, data, c.strat, bl)
	if c.threads > 1 {
		name += fmt.Sprintf("_t%d", c.threads)
	}
	return name
}

func orientCases(taxa ...int) []orientCase {
	var out []orientCase
	for _, n := range taxa {
		for _, mixed := range []bool{false, true} {
			for _, strat := range []opt.Strategy{opt.NewPar, opt.OldPar} {
				for _, perPart := range []bool{false, true} {
					out = append(out, orientCase{taxa: n, mixed: mixed, strat: strat, perPart: perPart})
				}
			}
		}
	}
	return out
}

// buildOrient opens a searcher (3 rounds, radius 5) over generated data and
// a random starting tree.
func buildOrient(t *testing.T, c orientCase) *Searcher {
	t.Helper()
	var ds *seqsim.Dataset
	var err error
	if c.mixed {
		ds, err = seqsim.MixedDataset(c.taxa, 2, 1, 16, 1.0, int64(c.taxa)*7+1)
	} else {
		ds, err = seqsim.GridDataset(c.taxa, 1000, 250, 0.06, int64(c.taxa)*3+2)
	}
	if err != nil {
		t.Fatal(err)
	}
	d, err := alignment.Compress(ds.Alignment, ds.Parts, alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	models, err := model.DefaultsFor(d.Parts, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	slots := 1
	if c.perPart {
		slots = len(d.Parts)
	}
	start, err := tree.Random(ds.Alignment.Names, slots, tree.RandomOptions{Seed: int64(c.taxa)})
	if err != nil {
		t.Fatal(err)
	}
	exec := parallel.NewSequential()
	if c.threads > 1 {
		if exec, err = parallel.NewPool(c.threads); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(exec.Close)
	}
	eng, err := newEngine(d, start, models, exec, core.Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(c.strat)
	cfg.MaxRounds = 3
	cfg.Radius = 5
	return New(eng, cfg)
}

// towards reports whether every flagged record in p's view points towards
// p.Back.
func towards(p *tree.Node) bool {
	if p.IsTip() {
		return true
	}
	if p.Next.X || p.Next.Next.X {
		return false
	}
	return towards(p.Next.Back) && towards(p.Next.Next.Back)
}

// checkCLVs fails t unless the X flags keep their contract: every flagged
// record points towards one branch f (the last traversal's root) and holds
// the valid view for the current tree, so that every branch's score after a
// partial traversal equals its from-scratch score bit for bit. The partial
// scores are taken first, f's before any other: a partial traversal to f
// recomputes nothing flagged and reads every flagged CLV, directly or
// through the CLVs computed from it. It leaves every CLV valid.
func checkCLVs(t *testing.T, e *core.Engine, where string) {
	t.Helper()
	order := e.Tree.Branches()
	f := 0
	for f < len(order) && !(towards(order[f]) && towards(order[f].Back)) {
		f++
	}
	if f == len(order) {
		t.Errorf("%s: no branch has every flagged record pointing towards it", where)
		return
	}
	order[0], order[f] = order[f], order[0]
	partial := make([]float64, len(order))
	for j, b := range order {
		e.Evaluate(b, nil, nil, partial[j:j+1], nil)
	}
	var scratch [1]float64
	for j, b := range order {
		e.Tree.ClearX()
		if e.Evaluate(b, nil, nil, scratch[:], nil); math.Float64bits(partial[j]) != math.Float64bits(scratch[0]) {
			t.Errorf("%s: branch %d-%d partial score %v, from scratch %v", where, b.Index, b.Back.Index, partial[j], scratch[0])
		}
	}
}

// cancelWhen is a context that reads as cancelled whenever now() holds.
type cancelWhen struct {
	context.Context
	now func() bool
}

func (c cancelWhen) Err() error {
	if c.now() {
		return context.Canceled
	}
	return nil
}

// TestCandidatesKeepCLVsValid checks the X-flag contract (checkCLVs) after
// every trySubtree candidate of a round, on both the restore and the apply
// path. A candidate's prune trusts the flags the last region left, with no
// traversal towards v first, so a flag an earlier edit left stale shows
// here. Each applied move is also replayed with its
// local smoothing cancelled: no traversal towards v then follows the
// insertion, and only tree.ClearXAt stands between the flags on the path to
// the old root and a stale score.
func TestCandidatesKeepCLVsValid(t *testing.T) {
	for _, c := range orientCases(6, 8, 12) {
		t.Run(c.String(), func(t *testing.T) {
			s := buildOrient(t, c)
			e := s.E
			cancelApplied, moves := false, 0
			s.ctx = cancelWhen{context.Background(), func() bool { return cancelApplied && s.moves > moves }}
			if _, err := s.o.SmoothAll(s.ctx); err != nil {
				t.Fatal(err)
			}
			var candidates []*tree.Node
			for _, in := range e.Tree.Inner {
				candidates = append(candidates, in, in.Next, in.Next.Next)
			}
			restored, applied := 0, 0
			for k, v := range candidates {
				before, err := e.Tree.Clone()
				if err != nil {
					t.Fatal(err)
				}
				try := func() {
					moves = s.moves
					s.trySubtree(v)
				}
				try()
				if s.moves == moves {
					restored++
					checkCLVs(t, e, fmt.Sprintf("candidate %d (restore)", k))
					continue
				}
				applied++
				checkCLVs(t, e, fmt.Sprintf("candidate %d (apply)", k))
				replay := func(cancel bool) {
					if err := e.Tree.CopyTopologyFrom(before); err != nil {
						t.Fatal(err)
					}
					e.Tree.ClearX()
					cancelApplied = cancel
					try()
					cancelApplied = false
				}
				replay(true)
				checkCLVs(t, e, fmt.Sprintf("candidate %d (apply, smoothing cancelled)", k))
				replay(false) // the round goes on from the move as first applied
			}
			if restored == 0 || applied == 0 {
				t.Fatalf("round took the restore path %d times and the apply path %d times; want both", restored, applied)
			}
		})
	}
}

// TestRunKeepsCLVsValid checks the contract after a whole search.
func TestRunKeepsCLVsValid(t *testing.T) {
	for _, c := range orientCases(6, 8, 12) {
		t.Run(c.String(), func(t *testing.T) {
			s := buildOrient(t, c)
			if _, err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			checkCLVs(t, s.E, "after Run")
		})
	}
}

// TestNoCallerOrientsACLV: the search and branch smoothing issue no newview
// region of their own. Over SmoothAll, one SPR round and SmoothAll again,
// every stale CLV is recomputed inside the sumtable or evaluate region that
// reads it, so the newview region count does not move.
func TestNoCallerOrientsACLV(t *testing.T) {
	for _, c := range orientCases(8) {
		t.Run(c.String(), func(t *testing.T) {
			s := buildOrient(t, c)
			st := s.E.Exec.Stats()
			before := st.KindRegions[parallel.RegionNewview]
			if _, err := s.o.SmoothAll(context.Background()); err != nil {
				t.Fatal(err)
			}
			s.sprRound()
			if _, err := s.o.SmoothAll(context.Background()); err != nil {
				t.Fatal(err)
			}
			if s.tried == 0 {
				t.Fatal("the round tried no insertion")
			}
			if got := st.KindRegions[parallel.RegionNewview]; got != before {
				t.Errorf("%d newview regions over SmoothAll, an SPR round (%d trials, %d moves) and SmoothAll; want 0", got-before, s.tried, s.moves)
			}
		})
	}
}

// TestCancelledSmoothAllKeepsContract cancels SmoothAll on every poll, from
// a focus away from the branch it smooths first, under both strategies and
// both joint and per-partition lengths. SmoothAll clears no flag on cancel,
// so the flags the wind-down leaves must keep their contract (checkCLVs) and
// the returned score must equal a fresh LogLikelihood bit for bit.
func TestCancelledSmoothAllKeepsContract(t *testing.T) {
	for _, strat := range []opt.Strategy{opt.NewPar, opt.OldPar} {
		for _, perPart := range []bool{false, true} {
			c := orientCase{taxa: 8, mixed: true, strat: strat, perPart: perPart}
			t.Run(c.String(), func(t *testing.T) {
				// smooth runs SmoothAll under ctx on a fresh searcher whose
				// last region rooted at the tree's last inner branch.
				smooth := func(ctx context.Context) (*Searcher, float64) {
					s := buildOrient(t, c)
					var far *tree.Node
					for _, b := range s.E.Tree.Branches() {
						if !b.IsTip() && !b.Back.IsTip() {
							far = b
						}
					}
					s.E.Evaluate(far, nil, nil, nil, nil)
					lnl, err := s.o.SmoothAll(ctx)
					if err != nil {
						t.Fatal(err)
					}
					return s, lnl
				}
				pc := &pollCtx{Context: context.Background()}
				smooth(pc)
				polls := pc.polls
				for n := 1; n <= polls; n++ {
					s, lnl := smooth(&pollCtx{Context: context.Background(), n: n})
					where := fmt.Sprintf("cancelled on poll %d of %d", n, polls)
					checkCLVs(t, s.E, where)
					if fresh := s.E.LogLikelihood(nil); math.Float64bits(fresh) != math.Float64bits(lnl) {
						t.Errorf("%s: SmoothAll returned %v, a fresh LogLikelihood %v", where, lnl, fresh)
					}
				}
				t.Logf("%d polls", polls)
			})
		}
	}
}
