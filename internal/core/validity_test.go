package core

import (
	"math/rand"
	"testing"

	"phylo/internal/model"
	"phylo/internal/parallel"
)

// TestCLVValidityRule: the engine alone keeps the X flags true (rootSteps).
// A random sequence of model changes through the models' own setters, masked
// and unmasked evaluations, sumtables read by the derivative region's lnL
// lane, and topology copies to an NNI neighbour runs with no flag cleared by
// the test. After every evaluation at the canonical root its active
// partitions' bits, and for an unmasked one the total's, are those of a
// fresh session on clones, which computes every CLV from scratch.
func TestCLVValidityRule(t *testing.T) {
	r := newMemoRig(t)
	e := r.eng
	np := len(e.Models)
	rng := rand.New(rand.NewSource(51))
	masks := [][]bool{nil, {true, false}, {false, true}}
	per, z := make([]float64, np), make([]float64, np)
	checks := 0
	for op := 0; op < 240; op++ {
		branches := e.Tree.Branches()
		b, m := branches[rng.Intn(len(branches))], e.Models[rng.Intn(np)]
		switch rng.Intn(6) {
		case 0:
			if err := m.SetAlpha(0.3 + 2*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := m.SetExRate(rng.Intn(len(m.ExRates)-1), 0.2+3*rng.Float64()); err != nil {
				t.Fatal(err)
			}
			if err := m.UpdateEigen(); err != nil {
				t.Fatal(err)
			}
		case 2:
			e.Evaluate(b, masks[rng.Intn(len(masks))], nil, nil, per)
		case 3:
			e.PrepareSumtable(b, nil)
			for ip := range z {
				z[ip] = b.Z[e.slotOf(ip)]
			}
			var lane [1]float64
			e.BranchDerivatives(z, masks[rng.Intn(len(masks))], nil, nil, nil, lane[:])
		case 4:
			nni, err := e.Tree.Clone()
			if err != nil {
				t.Fatal(err)
			}
			moves := nni.NNIMoves()
			nni.ApplyNNI(moves[rng.Intn(len(moves))])
			if err := e.Tree.CopyTopologyFrom(nni); err != nil {
				t.Fatal(err)
			}
		default:
			mask := masks[rng.Intn(len(masks))]
			var lnl [1]float64
			e.Evaluate(e.Tree.Tips[0].Back, mask, nil, lnl[:], per)
			wantPer, want := scratchScore(t, e)
			for ip := range per {
				if mask == nil || mask[ip] {
					sameBits(t, "partition lnL after the sequence", per[ip:ip+1], wantPer[ip:ip+1])
				}
			}
			if mask == nil {
				sameBits(t, "lnL after the sequence", lnl[:], []float64{want})
			}
			checks++
		}
	}
	if checks < 20 {
		t.Fatalf("only %d checks ran", checks)
	}
}

// scratchScore is LogLikelihood's per-partition and total bits on a session
// that remembers nothing: a fresh Shared and session over clones of e's tree
// and models, on as many virtual workers as e's (the same chunk layout, hence
// the same reduction order).
func scratchScore(t *testing.T, e *Engine) ([]float64, float64) {
	t.Helper()
	tr, err := e.Tree.Clone()
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*model.Model, len(e.Models))
	for i, m := range e.Models {
		ms[i] = m.Clone()
	}
	sim, err := parallel.NewSim(e.Exec.Threads())
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	fresh, err := newEngine(e.Data, tr, ms, sim, Options{Specialize: e.Specialize})
	if err != nil {
		t.Fatal(err)
	}
	per := make([]float64, len(ms))
	return per, fresh.LogLikelihood(per)
}
