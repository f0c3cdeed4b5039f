package search

import (
	"context"
	"math"
	"testing"

	"phylo/internal/tree"
)

// fullTrial is a trial insertion as it ran before trials were ranked: the
// connecting branch solved by OptimizeBranch, to the length tolerance a
// length kept in the tree needs, always from the pruned connection length,
// and scored off the sumtable that solve left. It counts no trial.
func (s *Searcher) fullTrial(v, u *tree.Node) float64 {
	e := s.E
	uB, zu := u.Back, u.Z
	za := make([]float64, len(zu))
	zb := make([]float64, len(zu))
	for k := range zu {
		za[k] = tree.ClampBranchLen(zu[k] / 2)
		zb[k] = tree.ClampBranchLen(zu[k] / 2)
	}
	tree.Connect(v.Next, u, za)
	tree.Connect(v.Next.Next, uB, zb)
	tree.ClearXAt(v)
	s.o.OptimizeBranch(v)
	zs := make([]float64, e.NumPartitions())
	for ip := range zs {
		zs[ip] = v.Z[e.BranchSlot(ip)]
	}
	var lnl [1]float64
	e.BranchDerivatives(v, zs, nil, s.Cfg.Opt.Weights, nil, nil, lnl[:])
	tree.Connect(u, uB, zu)
	v.Next.Back = nil
	v.Next.Next.Back = nil
	copy(v.Z, s.zConnSave)
	return lnl[0]
}

// rankCheck collects what the full-precision search saw of the trials as
// trySubtree runs them now: how many prunes picked a different winner, how
// many trials were finished to full precision, and the largest |ranked −
// full| score difference.
type rankCheck struct {
	prunes, winnersDiffer int
	trials, finished      int
	maxDiff               float64
}

// fullSubtree is trySubtree as it ran when every trial was solved to full
// precision (fullTrial). Beside each trial it runs the trial as trySubtree
// runs it now (tryInsert under the bar trySubtree gives it; the baseline
// ranked only) and, when that may have been finished, the ranking solve
// alone (a bar of +Inf). It records in rc whether trySubtree's rule picks
// the full-precision winner and how far each ranked score is from the
// full-precision one; a trySubtree score must be one of the two, bit for
// bit. It applies the full-precision winner.
func (s *Searcher) fullSubtree(t *testing.T, v *tree.Node, rc *rankCheck) {
	b1 := v.Next.Back
	b2 := v.Next.Next.Back
	z1 := v.Next.Z
	z2 := v.Next.Next.Z
	s.zConnSave = append(s.zConnSave[:0], v.Z...)
	tree.ClearXAt(v)
	zf := make([]float64, len(z1))
	for k := range z1 {
		zf[k] = tree.ClampBranchLen(z1[k] + z2[k])
	}
	tree.Connect(b1, b2, zf)
	v.Next.Back = nil
	v.Next.Next.Back = nil

	// try scores the insertion at u at full precision and as trySubtree
	// does under bar.
	try := func(u *tree.Node, bar float64) (full, now float64) {
		full = s.fullTrial(v, u)
		now = s.tryInsert(v, u, bar)
		ranked := now
		if math.Float64bits(now) == math.Float64bits(full) {
			// Maybe finished: score the ranking solve alone.
			ranked = s.insert(v, u, math.Inf(1))
		}
		rc.trials++
		if d := math.Abs(ranked - full); !(d <= rc.maxDiff) {
			rc.maxDiff = d
		}
		if bits := math.Float64bits(now); bits != math.Float64bits(full) && bits != math.Float64bits(ranked) {
			t.Errorf("a trial scored %v under bar %v: neither its full-precision score %v nor its ranked score %v", now, bar, full, ranked)
		}
		if ranked+rankTol > bar {
			rc.finished++
		}
		return full, now
	}
	// The winners by full-precision scores ([0]) and by trySubtree's ([1]).
	var ref, best [2]float64
	var bestU [2]*tree.Node
	ref[0], ref[1] = try(b1, math.Inf(1))
	best = ref
	var scan func(w *tree.Node, depth int)
	scan = func(w *tree.Node, depth int) {
		if w.IsTip() {
			return
		}
		for _, u := range [2]*tree.Node{w.Next, w.Next.Next} {
			var lnl [2]float64
			lnl[0], lnl[1] = try(u, math.Max(best[1], ref[1]+minImprovement-rankTol))
			for i := range lnl {
				if lnl[i] > best[i] {
					best[i], bestU[i] = lnl[i], u
				}
			}
			if depth < s.Cfg.Radius {
				scan(u.Back, depth+1)
			}
		}
	}
	scan(b2, 1)
	scan(b1, 1)

	// trySubtree settles a margin the ranked baseline leaves open against
	// the baseline finished to full precision.
	if bestU[1] != nil && math.Abs(best[1]-(ref[1]+minImprovement)) <= rankTol {
		if ref[1] = s.insert(v, b1, math.Inf(-1)); math.Float64bits(ref[1]) != math.Float64bits(ref[0]) {
			t.Errorf("the baseline finished to full precision scores %v, solved to it at once %v", ref[1], ref[0])
		}
		rc.finished++
	}
	var winner [2]*tree.Node
	for i := range winner {
		if bestU[i] != nil && best[i] > ref[i]+minImprovement {
			winner[i] = bestU[i]
		}
	}
	rc.prunes++
	if winner[0] != winner[1] {
		rc.winnersDiffer++
	}
	if w := winner[0]; w != nil {
		s.moves++
		uB, zu := w.Back, w.Z
		copy(z1, zf)
		tree.Connect(b1, b2, z1)
		for k := range zu {
			zu[k] = tree.ClampBranchLen(zu[k] / 2)
		}
		copy(z2, zu)
		tree.Connect(v.Next, w, z2)
		tree.Connect(v.Next.Next, uB, zu)
		tree.ClearXAt(v)
		s.o.OptimizeBranch(v)
		s.o.OptimizeBranch(v.Next)
		s.o.OptimizeBranch(v.Next.Next)
		return
	}
	tree.Connect(v.Next, b1, z1)
	tree.Connect(v.Next.Next, b2, z2)
	tree.ClearXAt(v)
}

// fullRun is Run, uncancelled, over fullSubtree.
func (s *Searcher) fullRun(t *testing.T, rc *rankCheck) Result {
	t.Helper()
	s.ctx = context.Background()
	var err error
	if s.best, err = s.o.SmoothAll(s.ctx); err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for r := 0; r < s.Cfg.MaxRounds; r++ {
		rounds++
		prev := s.best
		var candidates []*tree.Node
		for _, in := range s.E.Tree.Inner {
			candidates = append(candidates, in, in.Next, in.Next.Next)
		}
		for _, v := range candidates {
			s.fullSubtree(t, v, rc)
		}
		if s.best, err = s.o.SmoothAll(s.ctx); err != nil {
			t.Fatal(err)
		}
		if s.best-prev < s.Cfg.Epsilon {
			break
		}
	}
	return Result{LnL: s.best, Rounds: rounds, MovesApplied: s.moves, MovesTried: rc.trials}
}

// TestRankedTrialsKeepEveryOutcome holds the search, whose scanned trials
// are ranked first and solved to full precision only when they can matter,
// to the search whose trials are all solved to full precision, over 12
// shapes × newPAR/oldPAR × joint/per-partition lengths × 1 and 2 workers:
// every prune picks the same winner (or none) under both rules, each ranked
// score is within rankTol of the full-precision one, and the two searches
// end on the same lnL bits, Newick and move counts.
func TestRankedTrialsKeepEveryOutcome(t *testing.T) {
	var cases []orientCase
	for _, threads := range []int{1, 2} {
		for _, c := range orientCases(6, 8, 10, 12, 16, 20) {
			c.threads = threads
			cases = append(cases, c)
		}
	}
	worst := 0.0
	for _, c := range cases {
		t.Run(c.String(), func(t *testing.T) {
			var rc rankCheck
			full, ranked := buildOrient(t, c), buildOrient(t, c)
			full.Cfg.MaxRounds, ranked.Cfg.MaxRounds = 2, 2
			want := full.fullRun(t, &rc)
			got, err := ranked.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rc.winnersDiffer != 0 {
				t.Errorf("%d of %d prunes pick a different winner under ranked scores", rc.winnersDiffer, rc.prunes)
			}
			if !(rc.maxDiff <= rankTol) {
				t.Errorf("a ranked trial scores %v from its full-precision score, more than rankTol %v", rc.maxDiff, rankTol)
			}
			if math.Float64bits(got.LnL) != math.Float64bits(want.LnL) {
				t.Errorf("lnL %v, full-precision trials %v", got.LnL, want.LnL)
			}
			if got.MovesTried != want.MovesTried || got.MovesApplied != want.MovesApplied || got.Rounds != want.Rounds {
				t.Errorf("%d tried / %d applied in %d rounds, full-precision trials %d / %d in %d",
					got.MovesTried, got.MovesApplied, got.Rounds, want.MovesTried, want.MovesApplied, want.Rounds)
			}
			for k := 0; k < full.E.Tree.ZSlots; k++ {
				if g, w := tree.WriteNewick(ranked.E.Tree, k), tree.WriteNewick(full.E.Tree, k); g != w {
					t.Errorf("slot %d: Newick\n%s\nfull-precision trials\n%s", k, g, w)
				}
			}
			if got.MovesApplied == 0 {
				t.Error("the search applied no move, so no winner was compared")
			}
			worst = math.Max(worst, rc.maxDiff)
			t.Logf("%d trials in %d prunes (%d finished), %d moves: largest |ranked - full| %.3g",
				rc.trials, rc.prunes, rc.finished, got.MovesApplied, rc.maxDiff)
		})
	}
	t.Logf("largest |ranked - full| trial score over %d configurations: %.3g lnL (rankTol %g)", len(cases), worst, rankTol)
}
