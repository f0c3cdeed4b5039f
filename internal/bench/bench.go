// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section V). A run hands a generated
// dataset to the public phylo facade the way a user would (PHYLIP text plus a
// partition file), then executes a full analysis (model optimization on a
// fixed tree, or an ML tree search) under a chosen parallelization strategy
// and thread count, using either the real goroutine pool (host wall-clock
// numbers) or virtual workers, whose recorded region trace is priced on the
// paper's four machines (see DESIGN.md substitution #1).
package bench

import (
	"bytes"
	"context"
	"time"

	"phylo"
	"phylo/internal/alignment"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/seqsim"
)

// Mode selects the analysis the paper benchmarks.
type Mode int

const (
	// ModeModelOpt optimizes ML model parameters on the fixed input tree
	// (no tree search).
	ModeModelOpt Mode = iota
	// ModeSearch runs the full ML tree search.
	ModeSearch
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeSearch {
		return "tree-search"
	}
	return "model-opt"
}

// RunSpec describes one benchmark configuration.
type RunSpec struct {
	Dataset        *seqsim.Dataset
	Partitioned    bool // false collapses everything into one partition
	PerPartitionBL bool // per-partition vs joint branch-length estimate
	Strategy       phylo.Strategy
	Schedule       schedule.Strategy // pattern-to-worker assignment (default Cyclic)
	Threads        int
	Mode           Mode
	// Pool runs the Threads workers as real goroutines and measures host
	// wall-clock; the zero value runs them virtually (serially, recording the
	// region trace for platform pricing, with identical numerics).
	Pool         bool
	TreeSeed     int64 // fixed input tree (identical across configurations)
	SearchRounds int   // SPR rounds for ModeSearch (0 = default)
	SearchRadius int   // rearrangement radius (0 = default)
}

// Measurement is the outcome of one run. Stats is the analysis's op trace;
// its WorkerImbalance is the load measure the schedule comparisons report.
type Measurement struct {
	LnL             float64
	WallSeconds     float64
	Stats           phylo.SyncStats
	PlatformSeconds map[string]float64 // virtual seconds per paper platform
}

// openDataset hands ds to the facade as a user would: PHYLIP text and a
// RAxML partition file (one partition of ds's first type when !partitioned).
func openDataset(ds *seqsim.Dataset, partitioned bool, o phylo.DatasetOptions) (*phylo.Dataset, error) {
	var phy, parts bytes.Buffer
	if err := alignment.WritePhylip(&phy, ds.Alignment); err != nil {
		return nil, err
	}
	al, err := phylo.ReadPhylip(&phy)
	if err != nil {
		return nil, err
	}
	if partitioned {
		if err := alignment.WritePartitionFile(&parts, ds.Parts); err != nil {
			return nil, err
		}
		if err := al.SetPartitionsFromReader(&parts); err != nil {
			return nil, err
		}
	} else {
		al.SetSinglePartition(ds.Parts[0].Type)
	}
	return phylo.NewDataset(al, o)
}

// Run executes one configuration. ctx cancels the analysis at the next
// synchronization-region boundary; the returned Measurement then carries the
// partial result alongside ctx's error.
func Run(ctx context.Context, spec RunSpec) (*Measurement, error) {
	ds, err := openDataset(spec.Dataset, spec.Partitioned, phylo.DatasetOptions{
		Threads:        spec.Threads,
		Schedule:       spec.Schedule,
		VirtualThreads: !spec.Pool,
	})
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	// The fixed input tree: the paper runs every configuration on the same
	// starting tree for reproducibility, so that oldPAR and newPAR perform
	// identical algorithmic work.
	an, err := ds.NewAnalysis(phylo.AnalysisOptions{
		Strategy:                  spec.Strategy,
		PerPartitionBranchLengths: spec.PerPartitionBL,
		Seed:                      spec.TreeSeed,
	})
	if err != nil {
		return nil, err
	}
	defer an.Close()

	start := time.Now()
	var lnl float64
	var runErr error
	switch spec.Mode {
	case ModeSearch:
		var res phylo.SearchResult
		res, runErr = an.SearchWith(ctx, phylo.SearchOptions{MaxRounds: spec.SearchRounds, Radius: spec.SearchRadius})
		lnl = res.LnL
	default:
		lnl, runErr = an.OptimizeModel(ctx)
	}
	m := &Measurement{
		LnL:             lnl,
		WallSeconds:     time.Since(start).Seconds(),
		Stats:           an.Stats(),
		PlatformSeconds: make(map[string]float64, len(parallel.Platforms)),
	}
	for _, p := range parallel.Platforms {
		if m.PlatformSeconds[p.Name], err = an.PlatformSeconds(p.Name); err != nil {
			return nil, err
		}
	}
	return m, runErr
}
