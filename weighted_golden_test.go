package phylo

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"phylo/internal/core"
	"phylo/internal/opt"
	"phylo/internal/search"
)

// weightedGolden is what one configuration of TestWeightedSearchBootstrapGolden
// produced on one session: a model optimization and then an SPR search, both
// under one non-uniform bootstrap replicate (opt.Config.Weights), then an
// 8-replicate Bootstrap on the tree they left. Every region those issue — the
// Brent steps, the Newton derivatives, the trial insertions' scores — must score
// the replicate's weights, so a region that fell back to the dataset's own
// weights changes these bits.
type weightedGolden struct {
	Name         string
	ModelLnL     string // Float64bits, hex
	ModelRounds  int
	SearchLnL    string
	Tried        int
	Applied      int
	SearchNewick string
	BootLnL      []string // Float64bits of each ReplicateLnL, hex
	BootWinner   []int
	BootNewick   string
}

const weightedGoldenFile = "testdata/weighted_search_bootstrap_golden.json"

func weightedGoldenRun(t *testing.T, name string, mixed bool, strat Strategy, perPart bool, threads int) weightedGolden {
	t.Helper()
	var al *Alignment
	var err error
	if mixed {
		al, err = SimulateMixed(8, 2, 1, 60, 1.0, 57)
	} else {
		al, err = SimulateGrid(8, 600, 200, 0.3, 26)
	}
	if err != nil {
		t.Fatal(err)
	}
	an := openAnalysis(t, al, DatasetOptions{Threads: threads, Schedule: ScheduleWeighted},
		AnalysisOptions{Strategy: strat, PerPartitionBranchLengths: perPart, Seed: 8})
	ws, err := core.NewWeightSet(an.ds.data, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	cfg := search.DefaultConfig(an.strategy)
	cfg.MaxRounds, cfg.Radius = 3, 5
	cfg.Opt.Weights = ws.Replicate(2)
	cfg.Opt.MaxModelRounds = 3
	lnl, rounds, err := opt.New(an.eng, cfg.Opt).OptimizeModel(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.New(an.eng, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hex := func(v float64) string { return fmt.Sprintf("%#x", math.Float64bits(v)) }
	got := weightedGolden{Name: name, ModelLnL: hex(lnl), ModelRounds: rounds,
		SearchLnL: hex(res.LnL), Tried: res.MovesTried, Applied: res.MovesApplied, SearchNewick: an.TreeNewick()}
	boot, err := an.Bootstrap(context.Background(), 8, 19)
	if err != nil {
		t.Fatal(err)
	}
	for r, l := range boot.ReplicateLnL {
		got.BootLnL = append(got.BootLnL, hex(l))
		got.BootWinner = append(got.BootWinner, boot.ReplicateWinner[r])
	}
	got.BootNewick = boot.TreeNewick
	return got
}

// TestWeightedSearchBootstrapGolden holds a model optimization and a search
// under replicate weights and the bootstrap after them to the bits recorded
// while the weights were a session-wide engine override, before they became
// an argument of each region. The golden is never re-recorded to make the
// test pass. Its lnL bits are math.Exp's FMA form's: under
// GODEBUG=cpu.fma=off the SSE form moves them in their low-order bits (up to
// 3.5e-12 relative in the bootstrap lanes; rounds, moves, winners and Newicks
// stay equal), so CI's SSE-form step skips this test, as it skips
// TestGoldenAccounting.
func TestWeightedSearchBootstrapGolden(t *testing.T) {
	raw, err := os.ReadFile(weightedGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []weightedGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	runs := []weightedGolden{
		weightedGoldenRun(t, "d8_mixed_newPAR_perpart_T2", true, NewPar, true, 2),
		weightedGoldenRun(t, "d8_dna_oldPAR_joint_T1", false, OldPar, false, 1),
	}
	if len(want) != len(runs) {
		t.Fatalf("golden has %d runs, test makes %d", len(want), len(runs))
	}
	for i, got := range runs {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Errorf("%s:\n got  %s\n want %s", got.Name, g, w)
		}
	}
}
