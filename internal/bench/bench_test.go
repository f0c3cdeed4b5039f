package bench

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"strings"
	"testing"

	"phylo"
	"phylo/internal/schedule"
	"phylo/internal/seqsim"
)

// tinyDataset builds a very small but structurally faithful dataset: many
// short partitions, per-partition models.
func tinyDataset(t *testing.T) *seqsim.Dataset {
	t.Helper()
	ds, err := seqsim.GridDataset(10, 5000, 1000, 0.01, 7) // 5 partitions x 10 cols
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRunModelOptBothStrategies(t *testing.T) {
	ds := tinyDataset(t)
	var lnls [2]float64
	var regions [2]int64
	for i, strat := range []phylo.Strategy{phylo.OldPar, phylo.NewPar} {
		m, err := Run(context.Background(), RunSpec{
			Dataset:        ds,
			Partitioned:    true,
			PerPartitionBL: true,
			Strategy:       strat,
			Threads:        8,
			Mode:           ModeModelOpt,
			TreeSeed:       99,
		})
		if err != nil {
			t.Fatal(err)
		}
		lnls[i] = m.LnL
		regions[i] = m.Stats.Regions
		if len(m.PlatformSeconds) != 4 {
			t.Errorf("expected 4 platform prices, got %d", len(m.PlatformSeconds))
		}
		for name, s := range m.PlatformSeconds {
			if s <= 0 || math.IsNaN(s) {
				t.Errorf("platform %s priced at %v", name, s)
			}
		}
	}
	// Same optimum, fewer synchronizations for newPAR.
	if math.Abs(lnls[0]-lnls[1]) > 1e-2*math.Abs(lnls[0]) {
		t.Errorf("strategies disagree on lnL: %v vs %v", lnls[0], lnls[1])
	}
	if regions[1] >= regions[0] {
		t.Errorf("newPAR regions %d not fewer than oldPAR %d", regions[1], regions[0])
	}
}

func TestRunSearchProducesImprovement(t *testing.T) {
	ds := tinyDataset(t)
	m, err := Run(context.Background(), RunSpec{
		Dataset:        ds,
		Partitioned:    true,
		PerPartitionBL: true,
		Strategy:       phylo.NewPar,
		Threads:        4,
		Mode:           ModeSearch,
		TreeSeed:       99,
		SearchRounds:   1,
		SearchRadius:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.LnL >= 0 || math.IsNaN(m.LnL) {
		t.Errorf("search lnL = %v", m.LnL)
	}
}

func TestRunUnpartitionedAndPoolBackend(t *testing.T) {
	ds := tinyDataset(t)
	m, err := Run(context.Background(), RunSpec{
		Dataset:     ds,
		Partitioned: false,
		Strategy:    phylo.NewPar,
		Threads:     2,
		Mode:        ModeModelOpt,
		Pool:        true,
		TreeSeed:    99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.WallSeconds <= 0 {
		t.Error("wall-clock not measured")
	}
}

func TestOldParSlowdownShapeAt16Threads(t *testing.T) {
	// The paper's headline phenomenon in miniature: on a 16-core platform
	// profile, oldPAR at 16 threads must not be meaningfully faster than at
	// 8 threads (the paper observed a slowdown), while newPAR keeps scaling.
	ds, err := seqsim.GridDataset(20, 20000, 1000, 0.02, 11) // 20 partitions x 20 cols
	if err != nil {
		t.Fatal(err)
	}
	get := func(strat phylo.Strategy, threads int) float64 {
		m, err := Run(context.Background(), RunSpec{
			Dataset:        ds,
			Partitioned:    true,
			PerPartitionBL: true,
			Strategy:       strat,
			Threads:        threads,
			Mode:           ModeModelOpt,
			TreeSeed:       5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.PlatformSeconds["Barcelona"]
	}
	old8, old16 := get(phylo.OldPar, 8), get(phylo.OldPar, 16)
	new8, new16 := get(phylo.NewPar, 8), get(phylo.NewPar, 16)
	if old16 < old8*0.8 {
		t.Errorf("oldPAR sped up markedly from 8 (%v) to 16 (%v) threads; expected stagnation/slowdown", old8, old16)
	}
	if new16 > new8*1.1 {
		t.Errorf("newPAR slowed down from 8 (%v) to 16 (%v) threads", new8, new16)
	}
	if old8/new8 < 1.05 {
		t.Errorf("newPAR improvement at 8 threads only %.2fx", old8/new8)
	}
}

// DefaultFigureConfig returns laptop-scale defaults.
func DefaultFigureConfig(out io.Writer) FigureConfig {
	return FigureConfig{
		Scale:        0.04,
		SearchRounds: 1,
		SearchRadius: 3,
		Seed:         42,
		Out:          out,
	}
}

func TestWidthMicrobenchRuns(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultFigureConfig(&buf)
	cfg.Scale = 0.01
	cfg.SearchRounds = 1
	cfg.SearchRadius = 2
	if err := WidthMicrobench(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "imbalance") || !strings.Contains(out, "T=16") {
		t.Errorf("unexpected microbench output:\n%s", out)
	}
}

func TestFigure6SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figure regeneration is slow")
	}
	var buf bytes.Buffer
	cfg := DefaultFigureConfig(&buf)
	cfg.Scale = 0.005
	cfg.SearchRounds = 1
	cfg.SearchRadius = 1
	if err := Figure6(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Unpartitioned") {
		t.Errorf("figure 6 output malformed:\n%s", buf.String())
	}
}

// TestFigureRunSpecCarriesTheConfig: every figure run starts from
// FigureConfig.runSpec, which carries the config's schedule, input tree and
// search settings into the RunSpec, and figures.go builds no RunSpec of its
// own beside it (ModelOptExperiment once did, and ran cyclic whatever
// -schedule said).
func TestFigureRunSpecCarriesTheConfig(t *testing.T) {
	ds := tinyDataset(t)
	cfg := FigureConfig{SearchRounds: 2, SearchRadius: 3, Seed: 11, Schedule: schedule.Weighted}
	got := cfg.runSpec(ds, phylo.OldPar, 8, ModeModelOpt)
	want := RunSpec{Dataset: ds, Partitioned: true, PerPartitionBL: true, Strategy: phylo.OldPar,
		Schedule: schedule.Weighted, Threads: 8, Mode: ModeModelOpt, TreeSeed: 111, SearchRounds: 2, SearchRadius: 3}
	if got != want {
		t.Errorf("runSpec = %+v, want %+v", got, want)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "figures.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	literals := 0
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.CompositeLit); ok {
			if id, ok := lit.Type.(*ast.Ident); ok && id.Name == "RunSpec" {
				literals++
			}
		}
		return true
	})
	if literals != 1 {
		t.Errorf("figures.go builds %d RunSpec literals, want runSpec's one", literals)
	}
}
