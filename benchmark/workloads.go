package main

import (
	"bytes"
	"fmt"

	"phylo"
)

// inputs is what the program is handed: alignment and partition-scheme text.
// It never sees the seed they were generated from.
type inputs struct {
	phylip, parts []byte
}

// serialize turns a simulated alignment into the bytes a user would submit.
func serialize(al *phylo.Alignment, err error) (inputs, error) {
	if err != nil {
		return inputs{}, err
	}
	var a, p bytes.Buffer
	if err := al.WritePhylip(&a); err != nil {
		return inputs{}, err
	}
	if err := al.WritePartitions(&p); err != nil {
		return inputs{}, err
	}
	return inputs{a.Bytes(), p.Bytes()}, nil
}

// workload is one named set of inputs and the calls made on them.
type workload struct {
	name string
	why  string // one line, printed in BENCHMARK.json

	// generate makes the alignment from the instance's seed; smoke selects the
	// tiny size the package's own test runs.
	generate func(seed int64, smoke bool) (inputs, error)

	// Analysis workloads: the load shape and the timed call sequence.
	multi    bool // Threads: W (false: the plain single-thread baseline)
	schedule phylo.ScheduleStrategy
	steal    bool
	strategy phylo.Strategy
	solve    solveFunc

	// daemon marks the plkd workload, which run() handles separately.
	daemon bool
}

// defaultInstance seeds the instance of every workload: its alignment and,
// for an analysis workload, its starting tree. How many rounds the optimizer
// needs depends on both (between alignments of one shape by up to 40%, between
// starting trees on one alignment by up to 25% in regions), and solve_s is the
// measured wall time of a solve; ten seeds of that would say how instances
// differ, not how fast the program is. So the instance is the workload's, the
// same for every run, and the run's seed draws what a user varies on it: the
// bootstrap seed, the trees of the evaluate loop, plkd's hot trees and request
// mix. -instance selects another instance, to check a claim on one that was
// not used while a change was written.
const defaultInstance = 42

// threads resolves the worker count of a workload for W cores.
func (w *workload) threads(W int) int {
	if w.multi || w.daemon {
		return W
	}
	return 1
}

func grid(taxa, sites, partLen int, scale float64, sTaxa, sSites int, sScale float64) func(int64, bool) (inputs, error) {
	return func(seed int64, smoke bool) (inputs, error) {
		if smoke {
			return serialize(phylo.SimulateGrid(sTaxa, sSites, partLen, sScale, seed))
		}
		return serialize(phylo.SimulateGrid(taxa, sites, partLen, scale, seed))
	}
}

// Sizes. Every workload's likelihood arrays (patterns x 4 rates x states x
// 8 B per inner node) stay below 1 MB, inside one core's private L2 on the
// reference host. The host is a few cores of a shared machine: its last-level
// cache and memory bandwidth belong to the neighbours as much as to the run,
// and a working set that lives there is timed at their mercy (the issue's
// 20-taxon, 2000-pattern p5000_1t repeated to +-30% between runs of the same
// code, this size to a few per cent; README.md, 'Steadiness'). Small inputs
// also make a solve take 0.2-0.4 s, so a run of ten seconds holds the dozens of
// reps a steady median needs. What distinguishes the workloads is kept: few
// large partitions against many small ones, newPAR against oldPAR, DNA against
// mixed DNA + protein, in-process against HTTP.

// workloads is the normative list; names and order are BENCHMARK.json's.
var workloads = []*workload{
	{
		name:     "p5000_1t",
		why:      "4 partitions x 250 DNA patterns, 8 taxa, 1 thread, fused kernel, newPAR model optimisation: the kernel-bound single-thread baseline; barrier, steal and schedule changes must not move it",
		generate: grid(8, 20000, 5000, 0.05, 8, 20000, 0.01),
		strategy: phylo.NewPar,
		solve:    solveModelOpt,
	},
	{
		name:     "p1000_newpar",
		why:      "10 partitions x 50 patterns, 8 taxa, W threads, cyclic, newPAR: the paper's target case; cost is per-partition set-up inside regions and allocation, not per-pattern arithmetic",
		generate: grid(8, 10000, 1000, 0.05, 6, 4000, 0.02),
		multi:    true,
		strategy: phylo.NewPar,
		solve:    solveModelOpt,
	},
	{
		name:     "p1000_oldpar",
		why:      "same bytes and tree as p1000_newpar under oldPAR: one region per partition (~10x the regions, 50 patterns each), so region dispatch and barrier dominate; oldpar/newpar solve_s is the paper's headline",
		generate: grid(8, 10000, 1000, 0.05, 6, 4000, 0.02),
		multi:    true,
		strategy: phylo.OldPar,
		solve:    solveModelOpt,
	},
	{
		name: "mixed_search_boot",
		why:  "4 DNA + 2 AA partitions, 8 taxa, weighted schedule, stealing: branch smoothing, one SPR round, 100 batched bootstrap replicates; only here the 20-state kernel, partial traversals and batch arms work",
		generate: func(seed int64, smoke bool) (inputs, error) {
			if smoke {
				return serialize(phylo.SimulateMixed(6, 2, 1, 1000, 0.02, seed))
			}
			return serialize(phylo.SimulateMixed(8, 4, 2, 1000, 0.05, seed))
		},
		multi:    true,
		schedule: phylo.ScheduleWeighted,
		steal:    true,
		strategy: phylo.NewPar,
		solve:    solveSearchBoot,
	},
	{
		name:     "plkd_evaluate",
		why:      "W closed-loop HTTP clients on an in-process plkd (20 x 50 patterns, 10 taxa): 90% unique evaluates, 8% on 4 hot trees, 2% cache-hit re-submits; session open, admission, JSON and HTTP are on the path",
		generate: grid(10, 20000, 1000, 0.05, 8, 4000, 0.02),
		daemon:   true,
	},
}

// findWorkload resolves a name from the list.
func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
