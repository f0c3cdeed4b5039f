package search

import (
	"context"
	"math"
	"testing"

	"phylo/internal/opt"
	"phylo/internal/tree"
)

// pollCtx is a context whose Err turns non-nil on its n-th poll and stays so
// (n = 0: never); polls counts the polls.
type pollCtx struct {
	context.Context
	n, polls int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.n > 0 && c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCancelledTrialIsNotScored cancels on every poll of the first prune,
// under newPAR and oldPAR with per-partition branch lengths (oldPAR solves
// one partition at a time, so a cancelled solve can leave the others
// unsolved). Inside a trial: a tryInsert whose
// cancellation lands anywhere in it, its solves included, returns -Inf,
// and the uncancelled trial repeated after it scores what it scored before,
// ranked only or finished to full precision.
// Through Run: the first prune restores the topology, and the partial
// Result.LnL equals a fresh LogLikelihood of the tree Run leaves.
func TestCancelledTrialIsNotScored(t *testing.T) {
	for _, strat := range []opt.Strategy{opt.NewPar, opt.OldPar} {
		c := orientCase{taxa: 8, mixed: true, strat: strat, perPart: true}
		t.Run(c.String(), func(t *testing.T) {
			// Every searcher starts from the tree a whole search ends on, so
			// the uncancelled first prune applies no move.
			s := buildOrient(t, c)
			s.Cfg.MaxRounds = 20
			if _, err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			end := s.E.Tree
			settled := func() *Searcher {
				s := buildOrient(t, c)
				if err := s.E.Tree.CopyTopologyFrom(end); err != nil {
					t.Fatal(err)
				}
				s.E.Tree.ClearX()
				return s
			}

			// Where the first prune's polls fall in a Run: after SmoothAll's
			// and the round loop's.
			s = settled()
			pc := &pollCtx{Context: context.Background()}
			s.ctx = pc
			if _, err := s.o.SmoothAll(pc); err != nil {
				t.Fatal(err)
			}
			smooth := pc.polls
			pc.polls = 0
			s.trySubtree(s.E.Tree.Inner[0])
			prune := pc.polls
			if s.moves != 0 {
				t.Fatal("the uncancelled first prune applies a move: every cancelled one must restore, so the fixture needs one that does not")
			}

			// Inside a trial: the reinsertion baseline and the first
			// scanned branch of the first prune, pruned as trySubtree does.
			// The baseline is ranked only, as trySubtree runs it; the
			// scanned trial runs under a bar of -Inf, so its ranking solve
			// is finished to full precision.
			s = settled()
			pc = &pollCtx{Context: context.Background()}
			s.ctx = pc
			if _, err := s.o.SmoothAll(pc); err != nil {
				t.Fatal(err)
			}
			e := s.E
			v := e.Tree.Inner[0]
			b1, b2 := v.Next.Back, v.Next.Next.Back
			s.zConnSave = append(s.zConnSave[:0], v.Z...)
			tree.ClearXAt(v)
			zf := make([]float64, len(v.Z))
			for k := range zf {
				zf[k] = tree.ClampBranchLen(v.Next.Z[k] + v.Next.Next.Z[k])
			}
			tree.Connect(b1, b2, zf)
			v.Next.Back, v.Next.Next.Back = nil, nil
			w := b2
			if w.IsTip() {
				w = b1
			}
			trials := []struct {
				name string
				u    *tree.Node
				bar  float64
			}{
				{"baseline", b1, math.Inf(1)},
				{"first scanned", w.Next, math.Inf(-1)},
			}
			var trialPolls []int
			for _, tr := range trials {
				pc.n, pc.polls = 0, 0
				want := s.tryInsert(v, tr.u, tr.bar)
				polls := pc.polls
				trialPolls = append(trialPolls, polls)
				if math.IsInf(want, 0) || math.IsNaN(want) {
					t.Fatalf("%s: uncancelled trial scored %v", tr.name, want)
				}
				for n := 1; n <= polls; n++ {
					pc.n, pc.polls = n, 0
					if got := s.tryInsert(v, tr.u, tr.bar); !math.IsInf(got, -1) {
						t.Errorf("%s: cancelled on poll %d of %d, the trial scored %v, want -Inf", tr.name, n, polls, got)
					}
				}
				pc.n, pc.polls = 0, 0
				if got := s.tryInsert(v, tr.u, tr.bar); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: repeated after the cancelled ones, the trial scored %v, first %v", tr.name, got, want)
				}
			}

			// Through Run, cancelled on every poll of the first prune: the
			// round's own, then trySubtree's.
			for n := smooth + 2; n <= smooth+2+prune; n++ {
				s := settled()
				start, err := s.E.Tree.Clone()
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run(&pollCtx{Context: context.Background(), n: n})
				if err == nil {
					t.Fatalf("cancelled on poll %d: Run returned no error", n)
				}
				if n > smooth+3 && res.MovesTried == 0 {
					t.Fatalf("cancelled on poll %d: no trial ran, so the poll is not in the first prune", n)
				}
				if rf, err := tree.RobinsonFoulds(start, s.E.Tree); err != nil || rf != 0 {
					t.Errorf("cancelled on poll %d: the topology moved (RF %d, %v)", n, rf, err)
				}
				if got := s.E.LogLikelihood(nil); math.Float64bits(got) != math.Float64bits(res.LnL) {
					t.Errorf("cancelled on poll %d: Result.LnL %v, a fresh LogLikelihood %v", n, res.LnL, got)
				}
			}
			t.Logf("%d polls in SmoothAll, %d in the first prune, %v in the two trials", smooth, prune, trialPolls)
		})
	}
}
