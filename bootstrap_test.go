package phylo

import (
	"context"
	"math"
	"strings"
	"testing"

	"phylo/internal/core"
	"phylo/internal/opt"
	"phylo/internal/search"
)

// TestBootstrapEndToEnd runs the batched bootstrap through the public API and
// checks the whole result shape: R replicate scores and winners, support
// fractions in [0, 1] for every split of the ML tree, a support-annotated
// Newick that still parses, and a session left exactly as it was found.
func TestBootstrapEndToEnd(t *testing.T) {
	al, err := SimulateMixed(8, 2, 1, 200, 1.0, 17)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataset(al, DatasetOptions{Threads: 2, Schedule: ScheduleWeighted})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	var events []ProgressEvent
	an, err := ds.NewAnalysis(AnalysisOptions{
		Seed:     5,
		Progress: func(ev ProgressEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()
	if _, err := an.OptimizeBranchLengths(context.Background()); err != nil {
		t.Fatal(err)
	}
	beforeTree := an.TreeNewick()
	beforeLnL := an.LogLikelihood()

	const R = 12
	res, err := an.Bootstrap(context.Background(), R, 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replicates != R || res.Seed != 99 {
		t.Fatalf("result header %+v", res)
	}
	// 8 taxa: the ML tree plus its 2(n-3) = 10 NNI neighbors.
	if res.Candidates != 11 {
		t.Fatalf("%d candidates, want 11", res.Candidates)
	}
	if len(res.ReplicateLnL) != R || len(res.ReplicateWinner) != R {
		t.Fatalf("replicate slices %d/%d, want %d", len(res.ReplicateLnL), len(res.ReplicateWinner), R)
	}
	for r := 0; r < R; r++ {
		if res.ReplicateLnL[r] >= 0 {
			t.Errorf("replicate %d lnL %v not negative", r, res.ReplicateLnL[r])
		}
		if res.ReplicateWinner[r] < 0 || res.ReplicateWinner[r] >= res.Candidates {
			t.Errorf("replicate %d winner %d out of range", r, res.ReplicateWinner[r])
		}
	}
	// 8-taxon unrooted tree: n-3 = 5 non-trivial splits, each with support in
	// [0, 1].
	if len(res.Support) != 5 {
		t.Fatalf("%d supported splits, want 5", len(res.Support))
	}
	for key, frac := range res.Support {
		if frac < 0 || frac > 1 {
			t.Errorf("split %q support %v outside [0,1]", key, frac)
		}
	}
	if !strings.HasSuffix(res.TreeNewick, ";") {
		t.Fatalf("annotated newick malformed: %q", res.TreeNewick)
	}
	// Progress streamed one bootstrap event per candidate.
	boot := 0
	for _, ev := range events {
		if ev.Phase == PhaseBootstrap {
			boot++
		}
	}
	if boot != res.Candidates {
		t.Errorf("%d bootstrap progress events, want %d", boot, res.Candidates)
	}

	// The session is restored: same tree, bit-identical likelihood, and a
	// follow-up bootstrap with the same seed reproduces the result exactly.
	if after := an.TreeNewick(); after != beforeTree {
		t.Errorf("bootstrap changed the session tree:\n before %s\n after  %s", beforeTree, after)
	}
	if after := an.LogLikelihood(); after != beforeLnL {
		t.Errorf("bootstrap changed the session likelihood: %v -> %v", beforeLnL, after)
	}
	again, err := an.Bootstrap(context.Background(), R, 99)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < R; r++ {
		if again.ReplicateLnL[r] != res.ReplicateLnL[r] || again.ReplicateWinner[r] != res.ReplicateWinner[r] {
			t.Fatalf("replicate %d not reproducible: (%v,%d) vs (%v,%d)", r,
				res.ReplicateLnL[r], res.ReplicateWinner[r], again.ReplicateLnL[r], again.ReplicateWinner[r])
		}
	}
}

// TestBootstrapReplicatesAcrossWidths pins the fleet-growth contract at the
// facade: replicate r's *weight vector* is a pure function of (dataset, seed,
// r), independent of R. Scores are not bit-equal across widths — the
// shared-branch-length mode smooths against the aggregate of all R lanes, so
// branch lengths carry O(1/sqrt(R)) sampling noise — but with the same
// underlying weights the R=4 and R=10 runs must agree tightly, while a
// different seed must move the scores by orders of magnitude more.
func TestBootstrapReplicatesAcrossWidths(t *testing.T) {
	al, err := SimulateMixed(7, 1, 1, 150, 1.0, 23)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataset(al, DatasetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	an, err := ds.NewAnalysis(AnalysisOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()
	narrow, err := an.Bootstrap(context.Background(), 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := an.Bootstrap(context.Background(), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	other, err := an.Bootstrap(context.Background(), 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	seedGap := 0.0
	for r := 0; r < 4; r++ {
		widthGap := math.Abs(narrow.ReplicateLnL[r] - wide.ReplicateLnL[r])
		if widthGap > 1e-4*math.Abs(narrow.ReplicateLnL[r]) {
			t.Fatalf("replicate %d: width changed the score too much: %v vs %v", r, narrow.ReplicateLnL[r], wide.ReplicateLnL[r])
		}
		seedGap = math.Max(seedGap, math.Abs(narrow.ReplicateLnL[r]-other.ReplicateLnL[r]))
	}
	if seedGap < 1e-3 {
		t.Fatalf("different seeds produced near-identical replicate scores (max gap %v)", seedGap)
	}
}

// TestBootstrapValidation covers the error paths: bad replicate count,
// cancelled context, closed session.
func TestBootstrapValidation(t *testing.T) {
	al, err := SimulateMixed(6, 1, 1, 100, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataset(al, DatasetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	an, err := ds.NewAnalysis(AnalysisOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.Bootstrap(context.Background(), 0, 1); err == nil {
		t.Error("replicates=0 accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := an.Bootstrap(ctx, 3, 1); err == nil {
		t.Error("cancelled context not reported")
	}
	// The cancelled run still restored the session.
	if lnl := an.LogLikelihood(); lnl >= 0 {
		t.Errorf("session unusable after cancelled bootstrap: lnL %v", lnl)
	}
	an.Close()
	if _, err := an.Bootstrap(context.Background(), 3, 1); err == nil {
		t.Error("closed session accepted")
	}
}

// TestOptimizerRejectsWrongLengthWeights: a replicate weight vector of another
// dataset's length under a session's optimizer — the shared-branch-length
// mode Bootstrap runs in — is an error from branch smoothing, model
// optimization and search alike, never a panic, and leaves the session
// scoring and optimizing as before.
func TestOptimizerRejectsWrongLengthWeights(t *testing.T) {
	al, err := ReadPhylip(strings.NewReader(tinyPhylip))
	if err != nil {
		t.Fatal(err)
	}
	an := openAnalysis(t, al, DatasetOptions{}, AnalysisOptions{})
	other, err := SimulateGrid(6, 300, 300, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ods, err := NewDataset(other, DatasetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ods.Close()
	if ods.NumPatterns() == an.ds.NumPatterns() {
		t.Fatalf("both datasets have %d patterns", ods.NumPatterns())
	}
	ws, err := core.NewWeightSet(ods.data, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := an.optConfig()
	cfg.Weights = ws
	scfg := search.DefaultConfig(an.strategy)
	scfg.Opt = cfg

	ctx := context.Background()
	before := an.LogLikelihood()
	if _, err := opt.New(an.eng, cfg).SmoothAll(ctx); err == nil {
		t.Error("smoothing accepted weights of another dataset's length")
	}
	if _, _, err := opt.New(an.eng, cfg).OptimizeModel(ctx); err == nil {
		t.Error("model optimization accepted weights of another dataset's length")
	}
	if _, err := search.New(an.eng, scfg).Run(ctx); err == nil {
		t.Error("search accepted weights of another dataset's length")
	}
	if after := an.LogLikelihood(); after != before {
		t.Fatalf("lnL %v after the refusals, %v before", after, before)
	}
	if _, err := an.OptimizeBranchLengths(ctx); err != nil {
		t.Fatalf("the session is not usable after the refusals: %v", err)
	}
}
