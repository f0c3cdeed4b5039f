package seqsim

import (
	"context"
	"math"
	"testing"

	"phylo/internal/alignment"
	"phylo/internal/core"
	"phylo/internal/model"
	"phylo/internal/opt"
	"phylo/internal/parallel"
	"phylo/internal/tree"
)

func TestSimulateShapeAndDeterminism(t *testing.T) {
	tr, _ := tree.Random(TaxaNames(8), 1, tree.RandomOptions{Seed: 4})
	m1, _ := model.GTR(nil, nil, 4, 0.7)
	m2, _ := model.GTR(nil, nil, 4, 1.4)
	a1, parts, err := Simulate(tr, []*model.Model{m1, m2}, []int{100, 50}, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a1.NumTaxa() != 8 || a1.NumSites() != 150 {
		t.Fatalf("shape %dx%d, want 8x150", a1.NumTaxa(), a1.NumSites())
	}
	if len(parts) != 2 || len(parts[0].Sites) != 100 || len(parts[1].Sites) != 50 {
		t.Fatalf("partition shapes wrong: %v", parts)
	}
	a2, _, err := Simulate(tr, []*model.Model{m1, m2}, []int{100, 50}, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Seqs {
		if string(a1.Seqs[i]) != string(a2.Seqs[i]) {
			t.Fatal("same seed must reproduce the alignment")
		}
	}
	a3, _, _ := Simulate(tr, []*model.Model{m1, m2}, []int{100, 50}, Options{Seed: 10})
	same := true
	for i := range a1.Seqs {
		if string(a1.Seqs[i]) != string(a3.Seqs[i]) {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestSimulateUniqueColumns(t *testing.T) {
	tr, _ := tree.Random(TaxaNames(10), 1, tree.RandomOptions{Seed: 2})
	m, _ := model.GTR(nil, nil, 4, 1)
	a, parts, err := Simulate(tr, []*model.Model{m}, []int{500}, Options{Seed: 3, UniqueColumns: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := alignment.Compress(a, parts, alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalPatterns != 500 {
		t.Errorf("unique-column simulation compressed to %d patterns, want 500 (m = m')", d.TotalPatterns)
	}
}

func TestSimulateValidationErrors(t *testing.T) {
	tr, _ := tree.Random(TaxaNames(5), 1, tree.RandomOptions{Seed: 1})
	m, _ := model.JC69(4, 1)
	if _, _, err := Simulate(tr, []*model.Model{m}, []int{10, 10}, Options{}); err == nil {
		t.Error("expected error for model/length count mismatch")
	}
	if _, _, err := Simulate(tr, []*model.Model{m}, []int{0}, Options{}); err == nil {
		t.Error("expected error for zero-length partition")
	}
	if _, _, err := Simulate(tr, []*model.Model{m}, []int{10}, Options{Presence: [][]bool{{true}, {false}}}); err == nil {
		t.Error("expected error for presence mask mismatch")
	}
}

func TestSimulatedFrequenciesMatchModel(t *testing.T) {
	// On a star-ish tree with long branches, tip states approach the
	// stationary distribution.
	tr, _ := tree.Random(TaxaNames(12), 1, tree.RandomOptions{Seed: 6, MeanBranchLength: 3})
	freqs := []float64{0.4, 0.1, 0.15, 0.35}
	m, _ := model.GTR(freqs, nil, 1, 1)
	a, parts, err := Simulate(tr, []*model.Model{m}, []int{4000}, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := alignment.Compress(a, parts, alignment.CompressOptions{})
	got := model.EmpiricalFreqs(d.Parts[0])
	for i := range freqs {
		if math.Abs(got[i]-freqs[i]) > 0.05 {
			t.Errorf("state %d frequency %v, want ~%v", i, got[i], freqs[i])
		}
	}
}

func TestGappyPresenceWritesGaps(t *testing.T) {
	tr, _ := tree.Random(TaxaNames(6), 1, tree.RandomOptions{Seed: 8})
	m, _ := model.JC69(2, 1)
	presence := [][]bool{{true, true, false, true, false, true}}
	a, parts, err := Simulate(tr, []*model.Model{m}, []int{30}, Options{Seed: 12, Presence: presence})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range a.Seqs[2] {
		if c != '-' {
			t.Fatal("absent taxon must be all gaps")
		}
	}
	for _, c := range a.Seqs[0] {
		if c == '-' {
			t.Fatal("present taxon must have data")
		}
	}
	d, _ := alignment.Compress(a, parts, alignment.CompressOptions{})
	if d.Parts[0].Present[2] || !d.Parts[0].Present[0] {
		t.Error("presence flags wrong after compression")
	}
}

func TestGridDataset(t *testing.T) {
	ds, err := GridDataset(10, 5000, 1000, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Alignment.NumTaxa() != 10 {
		t.Errorf("taxa = %d", ds.Alignment.NumTaxa())
	}
	if len(ds.Parts) != 5 {
		t.Errorf("partitions = %d, want 5 (5000/1000)", len(ds.Parts))
	}
	// Scaled partitions: 1000 * 0.02 = 20 columns each.
	if got := len(ds.Parts[0].Sites); got != 20 {
		t.Errorf("scaled partition length = %d, want 20", got)
	}
	if _, err := GridDataset(10, 5000, 10000, 1, 1); err == nil {
		t.Error("expected error for partLen > sites (the paper skips d10_5000+p10000)")
	}
}

func TestRealWorldDatasetShape(t *testing.T) {
	ds, err := RealWorldDataset(R125Spec, 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Alignment.NumTaxa() != 125 {
		t.Errorf("taxa = %d, want 125", ds.Alignment.NumTaxa())
	}
	if len(ds.Parts) != 34 {
		t.Errorf("partitions = %d, want 34", len(ds.Parts))
	}
	// The alignment must be gappy: some taxon is absent from some partition.
	d, err := alignment.Compress(ds.Alignment, ds.Parts, alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gappy := false
	for _, p := range d.Parts {
		for _, pr := range p.Present {
			if !pr {
				gappy = true
			}
		}
	}
	if !gappy {
		t.Error("real-world stand-in should contain data holes")
	}
}

func TestPartitionLengthsHonorSpec(t *testing.T) {
	lens := partitionLengths(R125Spec, 3)
	if len(lens) != 34 {
		t.Fatalf("got %d lengths", len(lens))
	}
	sum, min, max := 0, lens[0], lens[0]
	for _, l := range lens {
		sum += l
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if min != R125Spec.MinPart || max != R125Spec.MaxPart {
		t.Errorf("min/max = %d/%d, want %d/%d", min, max, R125Spec.MinPart, R125Spec.MaxPart)
	}
	if math.Abs(float64(sum-R125Spec.TotalLen)) > float64(R125Spec.TotalLen)/100 {
		t.Errorf("total = %d, want ~%d", sum, R125Spec.TotalLen)
	}
}

// Integration: parameters used for simulation are recoverable by the
// optimizer — alpha and branch scale come back near the truth.
func TestParameterRecovery(t *testing.T) {
	tr, _ := tree.Random(TaxaNames(12), 1, tree.RandomOptions{Seed: 14, MeanBranchLength: 0.15})
	trueAlpha := 0.5
	m, _ := model.GTR([]float64{0.3, 0.2, 0.25, 0.25}, nil, 4, trueAlpha)
	a, parts, err := Simulate(tr, []*model.Model{m}, []int{3000}, Options{Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := alignment.Compress(a, parts, alignment.CompressOptions{})
	fit, _ := model.GTR([]float64{0.3, 0.2, 0.25, 0.25}, nil, 4, 1.0) // start away from truth
	// Reuse the generating topology but fresh default branch lengths.
	start, _ := tree.ParseNewick(tree.WriteNewick(tr, 0), TaxaNames(12), 1)
	for _, b := range start.Branches() {
		tree.SetBranchLength(b, 0, 0.1)
	}
	eng, err := newEngine(d, start, []*model.Model{fit}, parallel.NewSequential(), core.Options{Specialize: true})
	if err != nil {
		t.Fatal(err)
	}
	o := opt.New(eng, opt.DefaultConfig(opt.NewPar))
	o.Cfg.OptimizeRates = false
	if _, rounds, _ := o.OptimizeModel(context.Background()); rounds < 1 {
		t.Fatal("no optimization rounds ran")
	}
	if got := eng.Models[0].Alpha; got < 0.3 || got > 0.8 {
		t.Errorf("recovered alpha %v, simulated with %v", got, trueAlpha)
	}
	// Recovered branch lengths correlate with the truth: compare totals.
	var trueTotal, gotTotal float64
	for _, b := range tr.Branches() {
		trueTotal += b.Z[0]
	}
	for _, b := range start.Branches() {
		gotTotal += b.Z[0]
	}
	if gotTotal < 0.5*trueTotal || gotTotal > 2*trueTotal {
		t.Errorf("recovered tree length %v vs true %v", gotTotal, trueTotal)
	}
}

// newEngine builds the shared state for (d, the models' category count,
// exec's worker count) and opens one session over it.
func newEngine(d *alignment.CompressedData, tr *tree.Tree, models []*model.Model, exec parallel.Executor, opts core.Options) (*core.Engine, error) {
	sh, err := core.NewSharedWith(d, models[0].NumCats, exec.Threads(), core.BackendAuto)
	if err != nil {
		return nil, err
	}
	return core.NewSession(sh, tr, models, exec, opts)
}
