package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/parallel"
	"phylo/internal/tree"
)

// Present-code tip tables: only the rows a taxon's own codes address are
// built, so these tests (a) poison every other row and (b) walk the partition
// sizes around the data-derived table threshold, and require bit-identical
// results from every backend × Specialize combination.

// poisonTips is the test seam over Engine.Exec: it fills the session's whole
// tip-table scratch with NaN once before the first region and, as the
// executor's region observer, after every region — so before every next one.
// A kernel that read a row no builder of the region wrote would turn the
// result into NaN (and one that read a row an earlier span left behind would
// break the bit-identity).
type poisonTips struct{ eng *Engine }

func (p poisonTips) ObserveRegion(parallel.Region, time.Time, float64, []parallel.WorkerCtx) {
	for _, w := range p.eng.workers {
		for _, buf := range w.tip {
			for i := range buf {
				buf[i] = math.NaN()
			}
		}
	}
}

// contiguousParts cuts sites [0, sum(lens)) into consecutive partitions of
// the given lengths and types.
func contiguousParts(lens []int, types []alignment.DataType) []alignment.Partition {
	parts := make([]alignment.Partition, len(lens))
	at := 0
	for i, n := range lens {
		sites := make([]int, n)
		for k := range sites {
			sites[k] = at + k
		}
		parts[i] = alignment.Partition{Name: fmt.Sprintf("p%d", i), Type: types[i], Sites: sites}
		at += n
	}
	return parts
}

// presentCodeEngines opens the four backend × Specialize sessions over d on
// identical trees and executors of the given width (1 = Sequential, else
// Sim); index 0 is the generic unspecialized oracle, which never reads a
// table. With poison set every session runs under poisonTips.
func presentCodeEngines(t *testing.T, d *alignment.CompressedData, models []*model.Model, threads int, poison bool) (engs []*Engine, labels []string) {
	t.Helper()
	for _, backend := range []Backend{BackendGeneric, BackendFused} {
		for _, spec := range []bool{false, true} {
			exec := parallel.NewSequential()
			if threads > 1 {
				sim, err := parallel.NewSim(threads)
				if err != nil {
					t.Fatal(err)
				}
				exec = sim
			}
			tr, err := tree.Random(taxaNames(d.NumTaxa()), 1, tree.RandomOptions{Seed: 23})
			if err != nil {
				t.Fatal(err)
			}
			ms := make([]*model.Model, len(models))
			for i, m := range models {
				ms[i] = m.Clone()
			}
			eng, err := newEngineOn(backend, d, tr, ms, exec, Options{Specialize: spec})
			if err != nil {
				t.Fatal(err)
			}
			if poison {
				poison := poisonTips{eng}
				poison.ObserveRegion(0, time.Time{}, 0, nil)
				exec.SetObserver(poison)
			}
			engs = append(engs, eng)
			label := backend.String() + "/generic-tips"
			if spec {
				label = backend.String() + "/tables"
			}
			labels = append(labels, label)
		}
	}
	return engs, labels
}

// TestPresentCodeTablesUnderPoison is the reachability proof by execution:
// on an alignment with gaps, R/Y/N ambiguity, AA B/Z and taxa that are
// all-gap in one partition, with the table scratch NaN-filled before every
// region, lnL, per-partition lnLs, both derivatives and every site lnL are
// bit-identical across generic/fused × Specialize on/off.
func TestPresentCodeTablesUnderPoison(t *testing.T) {
	const taxa = 7
	lens := []int{60, 50, 40}
	types := []alignment.DataType{alignment.DNA, alignment.DNA, alignment.AA}
	dna := randomAlignment(t, taxa, lens[0]+lens[1], alignment.DNA, 77)
	aa := randomAlignment(t, taxa, lens[2], alignment.AA, 78)
	rows := make([][]byte, taxa)
	for i := range rows {
		rows[i] = append(append([]byte{}, dna.Seqs[i]...), aa.Seqs[i]...)
	}
	for k := lens[0]; k < lens[0]+lens[1]; k++ {
		rows[3][k] = '-' // taxon 3 carries no data in the second DNA partition
	}
	for k := lens[0] + lens[1]; k < len(rows[5]); k++ {
		rows[5][k] = '-' // nor taxon 5 in the AA partition
	}
	al, err := alignment.New(taxaNames(taxa), rows)
	if err != nil {
		t.Fatal(err)
	}
	d, err := alignment.Compress(al, contiguousParts(lens, types), alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Parts[1].Codes[3]; len(got) != 1 || got[0] != alignment.DNAGap {
		t.Fatalf("all-gap taxon carries codes %v, want only the gap code", got)
	}
	for ip, p := range d.Parts {
		if rows := maxTipRows(p); rows >= alignment.NumCodes(p.Type) {
			t.Fatalf("partition %d: a taxon carries all %d codes; no absent row to poison", ip, rows)
		}
	}
	models := []*model.Model{tipCaseModels(t, alignment.DNA, 4, 0.8), tipCaseModels(t, alignment.DNA, 4, 0.8), tipCaseModels(t, alignment.AA, 4, 0.8)}
	for _, threads := range []int{1, 3} {
		engs, labels := presentCodeEngines(t, d, models, threads, true)
		oracle := runBackendResult(t, engs[0])
		if err := CheckFinite(oracle.lnl); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(engs); i++ {
			requireBackendIdentical(t, labels[i], oracle, runBackendResult(t, engs[i]))
		}
		// The specialized sessions must really have run on tables: cheaper
		// in ops than the oracle.
		if so, oo := engs[3].Exec.Stats().TotalOps, engs[0].Exec.Stats().TotalOps; so >= oo {
			t.Errorf("%d threads: specialized ops %v not below unspecialized %v; tables never engaged", threads, so, oo)
		}
	}
}

// TestSmallPartitionsAroundTableThreshold runs DNA partitions of 5…40 patterns
// (and AA ones on both sides of their threshold) at one and two workers, so
// owner shares run from 2 to 40 patterns across the present-code threshold:
// fused ≡ generic ≡ unspecialized, bit for bit.
func TestSmallPartitionsAroundTableThreshold(t *testing.T) {
	const taxa = 6
	var lens []int
	var types []alignment.DataType
	var models []*model.Model
	dnaLen := 0
	for n := 5; n <= 40; n++ {
		lens, types = append(lens, n), append(types, alignment.DNA)
		models = append(models, tipCaseModels(t, alignment.DNA, 4, 0.8))
		dnaLen += n
	}
	aaLen := 0
	for _, n := range []int{5, 17, 40} {
		lens, types = append(lens, n), append(types, alignment.AA)
		models = append(models, tipCaseModels(t, alignment.AA, 4, 0.8))
		aaLen += n
	}
	dna := randomAlignment(t, taxa, dnaLen, alignment.DNA, 501)
	aa := randomAlignment(t, taxa, aaLen, alignment.AA, 502)
	rows := make([][]byte, taxa)
	for i := range rows {
		rows[i] = append(append([]byte{}, dna.Seqs[i]...), aa.Seqs[i]...)
	}
	al, err := alignment.New(taxaNames(taxa), rows)
	if err != nil {
		t.Fatal(err)
	}
	// KeepDuplicates pins every partition's pattern count to its length.
	d, err := alignment.Compress(al, contiguousParts(lens, types), alignment.CompressOptions{KeepDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 2} {
		engs, labels := presentCodeEngines(t, d, models, threads, false)
		oracle := runBackendResult(t, engs[0])
		for i := 1; i < len(engs); i++ {
			requireBackendIdentical(t, labels[i], oracle, runBackendResult(t, engs[i]))
		}
	}
}
