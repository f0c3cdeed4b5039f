package phylo

import (
	"context"
	"fmt"
	"math"
	"testing"

	"phylo/internal/tree"
)

// searchGolden is one configuration of TestSearchBootstrapGolden and the
// results recorded for it before searches and bootstraps stopped
// recomputing CLVs that were still valid: the search's lnL bits, its move
// counts, the final tree, and the bits of the bootstrap's replicate-score
// sum. Which CLVs a run recomputes must never change a result bit, so the
// constants are never re-recorded to make the test pass.
type searchGolden struct {
	taxa    int
	mixed   bool
	strat   Strategy
	perPart bool
	threads int

	lnl            uint64
	tried, applied int
	newick         string
	bootSum        uint64
}

var searchGoldens = []searchGolden{
	{taxa: 6, strat: NewPar, threads: 1,
		lnl: 0xc09023838ab55a69, tried: 166, applied: 12, bootSum: 0xc0d46581a7f66437,
		newick: "(taxon0:0.15154245,taxon4:0.02558670,(((taxon1:0.03884576,taxon2:0.23840672):0.00000001,taxon5:0.42320251):0.34885228,taxon3:0.13089613):0.24179054);"},
	{taxa: 6, mixed: true, strat: OldPar, perPart: true, threads: 1,
		lnl: 0xc08884edac3aae95, tried: 108, applied: 12, bootSum: 0xc0cef9bf99ca6d9f,
		newick: "(taxon0:0.00000001,taxon1:0.09127055,(taxon5:0.33415717,(taxon3:0.00000001,(taxon2:0.05973864,taxon4:0.57242604):0.02338483):0.02420129):0.02853394);"},
	{taxa: 8, strat: OldPar, perPart: true, threads: 1,
		lnl: 0xc0914cdb92e2e6ae, tried: 414, applied: 14, bootSum: 0xc0d566f4a12d29b6,
		newick: "(taxon0:0.02225554,(((taxon6:0.02369417,taxon5:0.32130826):0.34497441,taxon3:0.38689985):0.00000001,(taxon7:0.14607076,(taxon4:0.01599316,taxon1:0.04462855):0.09670962):0.00000001):0.09469848,taxon2:0.13464782);"},
	{taxa: 8, mixed: true, strat: NewPar, threads: 2,
		lnl: 0xc08e43c828495f50, tried: 368, applied: 19, bootSum: 0xc0d364137a702222,
		newick: "(taxon0:0.00543952,taxon4:0.04832172,((taxon6:0.02269903,(((taxon2:0.02886467,taxon5:0.01197201):0.00000001,taxon3:0.19581446):0.07351429,taxon7:0.05385227):0.09231925):0.26931748,taxon1:0.13356343):0.00000001);"},
	{taxa: 8, mixed: true, strat: NewPar, perPart: true, threads: 1,
		lnl: 0xc08dc821bdf4c5bc, tried: 366, applied: 17, bootSum: 0xc0d3182e7eab0e47,
		newick: "(taxon0:0.00000001,taxon4:0.05685734,((taxon6:0.00000001,((taxon3:0.26455854,(taxon2:0.04361348,taxon5:0.01419017):0.00396468):0.05332578,taxon7:0.01877422):0.10653025):0.20473032,taxon1:0.12166186):0.00000001);"},
	{taxa: 12, strat: NewPar, perPart: true, threads: 2,
		lnl: 0xc0a1531d75551768, tried: 1070, applied: 45, bootSum: 0xc0e5bd5f892e6d67,
		newick: "(taxon0:0.16632972,((((taxon11:0.32543104,taxon4:0.13533524):0.00000001,taxon2:0.08104118):0.06099410,taxon9:0.35598943):0.02715893,((taxon8:0.34007255,(taxon5:0.08104643,taxon1:0.76773957):0.03642402):0.01487985,taxon10:0.11831028):0.17149871):0.00000001,((taxon3:0.36895957,taxon6:0.86396435):0.15988889,taxon7:0.00000001):0.48902583);"},
	{taxa: 12, mixed: true, strat: OldPar, threads: 1,
		lnl: 0xc09ab1a7c1ddb9b6, tried: 1040, applied: 26, bootSum: 0xc0e0796b2bd9720c,
		newick: "(taxon0:0.11741425,(taxon3:0.24435869,((((taxon7:0.09759564,taxon4:0.02829961):0.00000001,((taxon6:0.06138059,taxon10:0.07390559):0.18913400,(taxon8:0.01403399,taxon2:0.20293492):0.14791936):0.43881861):0.27752308,taxon5:0.00000001):0.45684943,(taxon9:0.00000001,taxon11:0.10817125):0.00000001):0.22728495):0.02028700,taxon1:0.05872085);"},
	{taxa: 20, strat: NewPar, threads: 1,
		lnl: 0xc0a62a3c031f998e, tried: 2348, applied: 64, bootSum: 0xc0ec4ce68be00ffa,
		newick: "(taxon0:0.14037361,((taxon1:0.01274509,taxon10:0.23188486):0.24041098,(((((taxon7:0.00518158,taxon19:0.07066043):0.17876836,taxon8:0.15289993):0.45270837,taxon18:0.10935670):0.04393506,taxon2:0.06389248):0.00000001,(((((taxon6:0.03457658,taxon15:0.05978929):0.03910715,taxon12:0.05400008):0.52451845,taxon3:0.06699510):0.00779164,(taxon14:0.15164345,(taxon16:0.04407092,(taxon11:0.02384223,((taxon13:0.31421928,taxon9:0.49224330):0.10432253,taxon17:0.05174287):0.04798595):0.19340768):0.13720502):0.02399113):0.00000001,taxon4:0.03823682):1.40469943):0.56918298):0.15701184,taxon5:0.09665668);"},
}

// goldenRun runs the search (3 rounds, radius 5) and a 20-replicate
// bootstrap on one configuration and returns the row it produced.
func goldenRun(t *testing.T, g searchGolden) searchGolden {
	t.Helper()
	var al *Alignment
	var err error
	if g.mixed {
		al, err = SimulateMixed(g.taxa, 2, 1, 60, 1.0, int64(g.taxa)*7+1)
	} else {
		al, err = SimulateGrid(g.taxa, 1000, 250, 0.2, int64(g.taxa)*3+2)
	}
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataset(al, DatasetOptions{Threads: g.threads, Schedule: ScheduleWeighted})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	an, err := ds.NewAnalysis(AnalysisOptions{Strategy: g.strat, PerPartitionBranchLengths: g.perPart, Seed: int64(g.taxa)})
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()
	res, err := an.SearchWith(context.Background(), SearchOptions{MaxRounds: 3, Radius: 5})
	if err != nil {
		t.Fatal(err)
	}
	got := g
	got.lnl, got.tried, got.applied = math.Float64bits(res.LnL), res.MovesTried, res.MovesApplied
	got.newick = an.TreeNewick()
	boot, err := an.Bootstrap(context.Background(), 20, 77)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range boot.ReplicateLnL {
		sum += l
	}
	got.bootSum = math.Float64bits(sum)
	return got
}

// TestSearchBootstrapGolden holds the SPR search and the bootstrap to the
// bits they produced when every candidate re-traversed the whole tree:
// recomputing only stale CLVs must leave every score, move and tree as it
// was. The lnL bits are math.Exp's FMA form's: under GODEBUG=cpu.fma=off its
// SSE form moves them by 1-2 ulps (moves and Newicks stay equal), so CI's
// SSE-form step skips this test, as it skips TestGoldenAccounting.
func TestSearchBootstrapGolden(t *testing.T) {
	for _, g := range searchGoldens {
		g := g
		name := fmt.Sprintf("d%d_mixed=%v_%v_perpart=%v_T%d", g.taxa, g.mixed, g.strat, g.perPart, g.threads)
		t.Run(name, func(t *testing.T) {
			got := goldenRun(t, g)
			if got != g {
				t.Errorf("got  {%d, %v, %v, %v, %d, %#x, %d, %d, %q, %#x}\nwant {%d, %v, %v, %v, %d, %#x, %d, %d, %q, %#x}",
					got.taxa, got.mixed, got.strat, got.perPart, got.threads, got.lnl, got.tried, got.applied, got.newick, got.bootSum,
					g.taxa, g.mixed, g.strat, g.perPart, g.threads, g.lnl, g.tried, g.applied, g.newick, g.bootSum)
			}
		})
	}
}

// TestBootstrapScoresOnValidCLVs: a bootstrap candidate's batched evaluate
// reads the CLVs its branch smoothing left at the canonical root, with no
// traversal of its own, so those must be the CLVs a from-scratch traversal
// computes, bit for bit. Checked after every search round and every
// bootstrap candidate (from the progress callback, which runs between
// regions), and on every branch once Bootstrap has returned.
func TestBootstrapScoresOnValidCLVs(t *testing.T) {
	al, err := SimulateMixed(8, 2, 1, 60, 1.0, 57)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := NewDataset(al, DatasetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	var an *Analysis
	check := func(b *tree.Node, where string) {
		e := an.eng
		var lnl [2]float64
		e.Evaluate(b, nil, nil, lnl[:1], nil)
		e.Tree.ClearX()
		e.Evaluate(b, nil, nil, lnl[1:], nil)
		partial, scratch := lnl[0], lnl[1]
		if math.Float64bits(partial) != math.Float64bits(scratch) {
			t.Errorf("%s: branch %d-%d partial score %v, from scratch %v", where, b.Index, b.Back.Index, partial, scratch)
		}
	}
	events := 0
	an, err = ds.NewAnalysis(AnalysisOptions{Seed: 3, Progress: func(ev ProgressEvent) {
		events++
		check(an.tr.Tips[0].Back, fmt.Sprintf("%s event %d", ev.Phase, ev.Round))
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()
	if _, err := an.SearchWith(context.Background(), SearchOptions{MaxRounds: 2, Radius: 5}); err != nil {
		t.Fatal(err)
	}
	boot, err := an.Bootstrap(context.Background(), 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if events < boot.Candidates+1 {
		t.Fatalf("%d progress events for %d candidates", events, boot.Candidates)
	}
	for _, b := range an.tr.Branches() {
		check(b, "after Bootstrap")
	}
}
