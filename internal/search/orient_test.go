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
// per-partition branch lengths the search's bit-identity was checked on.
type orientCase struct {
	taxa    int
	mixed   bool
	strat   opt.Strategy
	perPart bool
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
	return fmt.Sprintf("d%d_%s_%v_%s", c.taxa, data, c.strat, bl)
}

func orientCases(taxa ...int) []orientCase {
	var out []orientCase
	for _, n := range taxa {
		for _, mixed := range []bool{false, true} {
			for _, strat := range []opt.Strategy{opt.NewPar, opt.OldPar} {
				for _, perPart := range []bool{false, true} {
					out = append(out, orientCase{n, mixed, strat, perPart})
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
	eng, err := newEngine(d, start, models, parallel.NewSequential(), core.Options{Specialize: true})
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
		e.TraverseRoot(b, true, nil)
		e.Evaluate(b, nil, nil, partial[j:j+1], nil)
	}
	var scratch [1]float64
	for j, b := range order {
		e.InvalidateCLVs()
		e.TraverseRoot(b, false, nil)
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
// path. A candidate starts from a partial traversal, so a flag an earlier
// edit left stale shows here. Each applied move is also replayed with its
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
					e.InvalidateCLVs()
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
