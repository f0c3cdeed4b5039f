package phylo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"phylo/internal/core"
	"phylo/internal/opt"
	"phylo/internal/tree"
)

// copySweep is Bootstrap's candidate sweep as it ran before candidates were
// scored in place: a Clone per NNI move, each candidate copied whole into
// the session (CopyTopologyFrom, which clears every flag), smoothed and
// scored by one batched evaluate, and every replicate's winner added to the
// support counter on its own. It restores the session's tree on return.
func copySweep(t *testing.T, an *Analysis, replicates int, seed int64) *BootstrapResult {
	t.Helper()
	ws, err := core.NewWeightSet(an.ds.data, replicates, seed)
	if err != nil {
		t.Fatal(err)
	}
	original, err := an.tr.Clone()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := an.tr.CopyTopologyFrom(original); err != nil {
			t.Fatal(err)
		}
	}()
	candidates := []*tree.Tree{original}
	for _, m := range original.NNIMoves() {
		c, err := original.Clone()
		if err != nil {
			t.Fatal(err)
		}
		c.ApplyNNI(m)
		candidates = append(candidates, c)
	}
	cfg := an.optConfig()
	cfg.Weights = ws.Aggregate()
	lanes := make([][]float64, len(candidates))
	for i, cand := range candidates {
		if err := an.tr.CopyTopologyFrom(cand); err != nil {
			t.Fatal(err)
		}
		if _, err := opt.New(an.eng, cfg).SmoothAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		lanes[i] = make([]float64, replicates)
		an.eng.Evaluate(an.tr.Tips[0].Back, nil, ws, lanes[i], nil)
	}
	res := &BootstrapResult{
		Replicates:      replicates,
		Seed:            seed,
		Candidates:      len(candidates),
		ReplicateLnL:    make([]float64, replicates),
		ReplicateWinner: make([]int, replicates),
	}
	counter := tree.NewSupportCounter(original.NumTips())
	for r := 0; r < replicates; r++ {
		best := 0
		for i := 1; i < len(candidates); i++ {
			if lanes[i][r] > lanes[best][r] {
				best = i
			}
		}
		res.ReplicateWinner[r] = best
		res.ReplicateLnL[r] = lanes[best][r]
		if err := counter.Add(candidates[best], 1); err != nil {
			t.Fatal(err)
		}
	}
	if res.Support, err = counter.Support(original); err != nil {
		t.Fatal(err)
	}
	res.TreeNewick = tree.WriteNewickSupport(original, 0, res.Support)
	return res
}

// sessionState is what a read-only call must leave as it found: every
// branch length's bits by record, the Newick of every partition's lengths,
// and the from-scratch log likelihood.
func sessionState(t *testing.T, an *Analysis) string {
	t.Helper()
	s := fmt.Sprintf("lnL %#x", math.Float64bits(an.LogLikelihood()))
	for _, r := range an.tr.Records() {
		s += fmt.Sprintf(" %d-%d:", r.ID, r.Back.ID)
		for _, z := range r.Z {
			s += fmt.Sprintf("%#x,", math.Float64bits(z))
		}
	}
	for k := 0; k < an.eng.NumPartitions(); k++ {
		nw, err := an.TreeNewickForPartition(k)
		if err != nil {
			t.Fatal(err)
		}
		s += "\n" + nw
	}
	return s
}

// TestInPlaceSweepMatchesCopySweep: scoring each NNI candidate in place —
// the move applied and undone under tree.ClearXAt, the smoothed lengths put
// back from the snapshot — recomputes only the CLVs those edits made stale,
// and must give the copy sweep's replicate scores, winners, supports and
// annotated tree bit for bit. Bootstrap must leave the session's lengths,
// Newick and log likelihood as they were, also when it is cancelled at any
// candidate boundary.
func TestInPlaceSweepMatchesCopySweep(t *testing.T) {
	for _, taxa := range []int{6, 8, 12} {
		for _, mixed := range []bool{false, true} {
			var al *Alignment
			var err error
			if mixed {
				al, err = SimulateMixed(taxa, 2, 1, 40, 1.0, int64(taxa)*5+3)
			} else {
				al, err = SimulateGrid(taxa, 240, 80, 0.2, int64(taxa)*5+4)
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 2} {
				ds, err := NewDataset(al, DatasetOptions{Threads: threads, Schedule: ScheduleWeighted})
				if err != nil {
					t.Fatal(err)
				}
				for _, strat := range []Strategy{NewPar, OldPar} {
					for _, perPart := range []bool{false, true} {
						for _, R := range []int{1, 20} {
							name := fmt.Sprintf("d%d_mixed=%v_T%d_%v_perpart=%v_R%d", taxa, mixed, threads, strat, perPart, R)
							t.Run(name, func(t *testing.T) {
								checkInPlaceSweep(t, ds, AnalysisOptions{Strategy: strat, PerPartitionBranchLengths: perPart, Seed: int64(taxa + R)}, R)
							})
						}
					}
				}
				ds.Close()
			}
		}
	}
}

// checkInPlaceSweep runs the three checks of TestInPlaceSweepMatchesCopySweep
// on one session of ds.
func checkInPlaceSweep(t *testing.T, ds *Dataset, ao AnalysisOptions, R int) {
	seed := int64(R*31 + 7)
	var cancel context.CancelFunc
	cancelAt, events := 0, 0
	ao.Progress = func(ev ProgressEvent) {
		if ev.Phase != PhaseBootstrap {
			return
		}
		if events++; events == cancelAt {
			cancel()
		}
	}
	an, err := ds.NewAnalysis(ao)
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()
	if _, err := an.OptimizeBranchLengths(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := sessionState(t, an)

	got, err := an.Bootstrap(context.Background(), R, seed)
	if err != nil {
		t.Fatal(err)
	}
	if after := sessionState(t, an); after != before {
		t.Fatalf("Bootstrap changed the session:\nbefore %s\nafter  %s", before, after)
	}
	want := copySweep(t, an, R, seed)
	if after := sessionState(t, an); after != before {
		t.Fatalf("the copy sweep changed the session:\nbefore %s\nafter  %s", before, after)
	}
	if got.Candidates != want.Candidates || got.TreeNewick != want.TreeNewick {
		t.Fatalf("in place: %d candidates, tree %s\ncopy:     %d candidates, tree %s", got.Candidates, got.TreeNewick, want.Candidates, want.TreeNewick)
	}
	for r := 0; r < R; r++ {
		if got.ReplicateWinner[r] != want.ReplicateWinner[r] || math.Float64bits(got.ReplicateLnL[r]) != math.Float64bits(want.ReplicateLnL[r]) {
			t.Fatalf("replicate %d: in place won by candidate %d at %v, copy by %d at %v",
				r, got.ReplicateWinner[r], got.ReplicateLnL[r], want.ReplicateWinner[r], want.ReplicateLnL[r])
		}
	}
	if len(got.Support) != len(want.Support) {
		t.Fatalf("in place: %d supported splits, copy %d", len(got.Support), len(want.Support))
	}
	for key, w := range want.Support { //plk:allow(maprange) each key is checked on its own
		if g, ok := got.Support[key]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("split %s: in place support %v (present %v), copy %v", key, g, ok, w)
		}
	}

	for cancelAt = 1; cancelAt <= got.Candidates; cancelAt++ {
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		events = 0
		res, err := an.Bootstrap(ctx, R, seed)
		cancel()
		if cancelAt < got.Candidates && (res != nil || !errors.Is(err, context.Canceled)) {
			t.Fatalf("cancelled after candidate %d: result %v, error %v", cancelAt, res != nil, err)
		}
		if after := sessionState(t, an); after != before {
			t.Fatalf("Bootstrap cancelled after candidate %d changed the session:\nbefore %s\nafter  %s", cancelAt, before, after)
		}
	}
}
