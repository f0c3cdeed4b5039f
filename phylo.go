// Package phylo is a from-scratch Go implementation of the Phylogenetic
// Likelihood Kernel (PLK) with load-balanced fine-grained parallelism for
// partitioned phylogenomic analyses, reproducing Stamatakis & Ott, "Load
// Balance in the Phylogenetic Likelihood Kernel" (ICPP 2009).
//
// The package computes maximum-likelihood scores of unrooted binary
// phylogenies under GTR/Gamma models (DNA) and 20-state models (protein),
// optimizes model parameters (Brent's method, bracketing each minimum next to
// the parameter's current value) and branch lengths (Newton-Raphson), and
// runs SPR tree searches. Partitioned (multi-gene) datasets may use a
// separate model — and separate branch lengths — per partition; the iterative
// optimizers cut their work into parallel regions in one of the paper's two
// ways, and return the same bits either way:
//
//   - OldPar: every region spans one partition (narrow parallel regions,
//     the load-balance problem the paper describes);
//   - NewPar: every region spans all partitions that have not converged yet
//     (the paper's solution).
//
// The API has two layers. A Dataset is the immutable, shareable product of
// the per-dataset setup work the paper amortizes — compressed patterns, tip
// encodings, model templates, the precomputed worker schedule listed as one
// share layout, and the shared worker pool. An Analysis is one lightweight session over a Dataset: it
// owns only mutable state (tree, CLVs, model copies), so any number of
// sessions can run concurrently over one Dataset — the many-trees /
// one-alignment workload of surrogate-likelihood methods. Long-running
// entry points take a context.Context and cancel at synchronization-region
// boundaries, and an optional Progress callback streams per-round events.
//
// A typical session:
//
//	al, _ := phylo.ReadPhylipFile("data.phy")
//	al.SetUniformPartitions(phylo.DNA, 1000)
//	ds, _ := phylo.NewDataset(al, phylo.DatasetOptions{Threads: 8})
//	defer ds.Close()
//	an, _ := ds.NewAnalysis(phylo.AnalysisOptions{Strategy: phylo.NewPar,
//	    PerPartitionBranchLengths: true})
//	defer an.Close()
//	lnl, _ := an.OptimizeModel(ctx)
//	res, _ := an.Search(ctx)
//	fmt.Println(res.LnL, an.TreeNewick())
//
// As the public facade, every exported identifier in this package must carry
// a doc comment; plkvet's doclint analyzer enforces it.
//
//plk:documented
package phylo

import (
	"fmt"
	"io"
	"os"

	"phylo/internal/alignment"
	"phylo/internal/core"
	"phylo/internal/opt"
	"phylo/internal/schedule"
	"phylo/internal/seqsim"
	"phylo/internal/tree"
)

// DataType selects the character alphabet of a partition.
type DataType = alignment.DataType

// Alphabets.
const (
	// DNA is 4-state nucleotide data.
	DNA = alignment.DNA
	// AA is 20-state protein data.
	AA = alignment.AA
)

// Strategy selects how the iterative optimizers group partitions into
// parallel regions; it changes the region count, never a result.
type Strategy = opt.Strategy

// Parallelization strategies (see the package comment).
const (
	// OldPar gives every partition regions of its own.
	OldPar = opt.OldPar
	// NewPar shares every region among all unconverged partitions (the
	// paper's fix).
	NewPar = opt.NewPar
)

// ScheduleStrategy selects how alignment patterns are assigned to workers
// (see internal/schedule).
type ScheduleStrategy = schedule.Strategy

// Pattern-to-worker assignment strategies.
const (
	// ScheduleCyclic is the paper's per-partition balance (the default):
	// every worker gets as many patterns of each partition as the indices
	// congruent to it modulo the worker count, as one contiguous run.
	ScheduleCyclic = schedule.Cyclic
	// ScheduleWeighted LPT-bin-packs patterns onto workers by per-pattern op
	// cost, balancing mixed DNA/protein datasets by cost rather than count.
	ScheduleWeighted = schedule.Weighted
)

// ParseScheduleStrategy resolves "cyclic" or "weighted". Every other name
// fails the same way, including "block" (the contiguous ablation the paper
// argues against lives on in internal/schedule for cmd/experiments only) and
// "measured"/"adaptive" (a dataset's schedule is built once and never
// changes, so there is no run-time repricing strategy to select).
func ParseScheduleStrategy(name string) (ScheduleStrategy, error) {
	s, err := schedule.Parse(name)
	if err != nil || s == schedule.Block {
		return 0, fmt.Errorf("phylo: unknown schedule strategy %q (want cyclic or weighted)", name)
	}
	return s, nil
}

// KernelBackend selects the likelihood kernel bodies (see internal/core);
// every backend stores CLVs in the same layout. All backends produce
// bit-identical likelihoods, site likelihoods, and branch derivatives.
type KernelBackend = core.Backend

// Kernel backends.
const (
	// BackendAuto resolves to the PLK_BACKEND environment variable when set
	// and to BackendFused otherwise (the default).
	BackendAuto = core.BackendAuto
	// BackendGeneric runs the generic reference bodies on every partition —
	// the bit-exactness oracle the fused backend is tested against.
	BackendGeneric = core.BackendGeneric
	// BackendFused runs fully unrolled kernels over the category planes of
	// 4-state DNA partitions; 20-state partitions run the generic bodies.
	BackendFused = core.BackendFused
)

// ParseKernelBackend resolves "auto", "generic", or "fused"/"vectorized".
func ParseKernelBackend(name string) (KernelBackend, error) { return core.ParseBackend(name) }

// Alignment is a multiple sequence alignment plus its partition scheme.
type Alignment struct {
	raw   *alignment.Alignment
	parts []alignment.Partition
}

// ReadPhylip parses a (relaxed sequential or interleaved) PHYLIP alignment.
// The alignment starts with a single DNA partition; call a SetPartitions
// method to change that.
func ReadPhylip(r io.Reader) (*Alignment, error) {
	a, err := alignment.ReadPhylip(r)
	if err != nil {
		return nil, err
	}
	return &Alignment{raw: a, parts: alignment.SinglePartition(a, alignment.DNA, "all")}, nil
}

// ReadPhylipFile parses a PHYLIP file from disk.
func ReadPhylipFile(path string) (*Alignment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadPhylip(f)
}

// ReadFasta parses a FASTA alignment (single DNA partition by default).
func ReadFasta(r io.Reader) (*Alignment, error) {
	a, err := alignment.ReadFasta(r)
	if err != nil {
		return nil, err
	}
	return &Alignment{raw: a, parts: alignment.SinglePartition(a, alignment.DNA, "all")}, nil
}

// NumTaxa returns the sequence count.
func (al *Alignment) NumTaxa() int { return al.raw.NumTaxa() }

// NumSites returns the column count.
func (al *Alignment) NumSites() int { return al.raw.NumSites() }

// NumPartitions returns the partition count of the current scheme.
func (al *Alignment) NumPartitions() int { return len(al.parts) }

// TaxonNames returns the taxon labels.
func (al *Alignment) TaxonNames() []string { return append([]string(nil), al.raw.Names...) }

// SetSinglePartition treats the whole alignment as one partition
// (an "unpartitioned analysis" in the paper's vocabulary).
func (al *Alignment) SetSinglePartition(t DataType) {
	al.parts = alignment.SinglePartition(al.raw, t, "all")
}

// SetUniformPartitions splits the alignment into consecutive partitions of
// partLen columns (the paper's p1000/p5000/p10000 schemes).
func (al *Alignment) SetUniformPartitions(t DataType, partLen int) error {
	parts, err := alignment.UniformPartitions(al.raw, t, partLen)
	if err != nil {
		return err
	}
	al.parts = parts
	return nil
}

// SetPartitionsFromReader parses a RAxML-style partition file
// ("DNA, gene0 = 1-1000" ...).
func (al *Alignment) SetPartitionsFromReader(r io.Reader) error {
	parts, err := alignment.ParsePartitionFile(r, al.raw.NumSites())
	if err != nil {
		return err
	}
	al.parts = parts
	return nil
}

// SetPartitionsFromFile parses a RAxML-style partition file from disk.
func (al *Alignment) SetPartitionsFromFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return al.SetPartitionsFromReader(f)
}

// CompressionStats compresses the alignment under the current partition
// scheme and reports the column and unique-pattern counts — the width of
// every parallel region — without building the rest of a Dataset (models,
// schedule, worker pool).
func (al *Alignment) CompressionStats() (sites, patterns int, err error) {
	d, err := alignment.Compress(al.raw, al.parts, alignment.CompressOptions{})
	if err != nil {
		return 0, 0, err
	}
	return d.TotalSites, d.TotalPatterns, nil
}

// WritePhylip serializes the alignment.
func (al *Alignment) WritePhylip(w io.Writer) error { return alignment.WritePhylip(w, al.raw) }

// WritePartitions serializes the partition scheme in RAxML format.
func (al *Alignment) WritePartitions(w io.Writer) error {
	return alignment.WritePartitionFile(w, al.parts)
}

// RobinsonFoulds computes the Robinson-Foulds topological distance between
// two Newick trees over the same taxon set (0 = identical topologies,
// maximum 2(n-3) for binary trees). Useful for comparing search results.
func RobinsonFoulds(newickA, newickB string, taxa []string) (int, error) {
	a, err := tree.ParseNewick(newickA, taxa, 1)
	if err != nil {
		return 0, err
	}
	b, err := tree.ParseNewick(newickB, taxa, 1)
	if err != nil {
		return 0, err
	}
	return tree.RobinsonFoulds(a, b)
}

// SimulateGrid generates one of the paper's 12 simulated DNA datasets
// (dTAXA_SITES with uniform partitions of partLen columns) at the given
// scale (1.0 = paper scale). The result carries the partition scheme.
func SimulateGrid(taxa, sites, partLen int, scale float64, seed int64) (*Alignment, error) {
	ds, err := seqsim.GridDataset(taxa, sites, partLen, scale, seed)
	if err != nil {
		return nil, err
	}
	return &Alignment{raw: ds.Alignment, parts: ds.Parts}, nil
}

// SimulateMixed generates a partitioned alignment mixing DNA and protein
// partitions of jittered lengths around partLen columns — the workload whose
// ~25x per-pattern cost spread separates the scheduling strategies (see
// ScheduleWeighted).
func SimulateMixed(taxa, dnaParts, aaParts, partLen int, scale float64, seed int64) (*Alignment, error) {
	ds, err := seqsim.MixedDataset(taxa, dnaParts, aaParts, partLen, scale, seed)
	if err != nil {
		return nil, err
	}
	return &Alignment{raw: ds.Alignment, parts: ds.Parts}, nil
}

// SimulateRealWorld generates a shape-faithful stand-in for one of the
// paper's real-world alignments: "r26_21451", "r24_16916", or "r125_19839".
func SimulateRealWorld(name string, scale float64, seed int64) (*Alignment, error) {
	var spec seqsim.RealWorldSpec
	switch name {
	case seqsim.R26Spec.Name:
		spec = seqsim.R26Spec
	case seqsim.R24Spec.Name:
		spec = seqsim.R24Spec
	case seqsim.R125Spec.Name:
		spec = seqsim.R125Spec
	default:
		return nil, fmt.Errorf("phylo: unknown real-world dataset %q", name)
	}
	ds, err := seqsim.RealWorldDataset(spec, scale, seed)
	if err != nil {
		return nil, err
	}
	return &Alignment{raw: ds.Alignment, parts: ds.Parts}, nil
}
