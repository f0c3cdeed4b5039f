// Bootstrap walkthrough: estimate branch support for an ML tree with a
// batched bootstrap fleet. One Analysis session draws R resampled pattern
// weight vectors over the shared Dataset, scores the ML tree and its full NNI
// neighborhood under all R replicates in a single sweep — each NNI move is
// applied in place, so a candidate recomputes only the CLVs its swap made
// stale, and one batched evaluate reduces every replicate's weighted log
// likelihood at once — and maps the replicate winners back onto the ML tree
// as per-branch support percentages.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"phylo"
)

func main() {
	ctx := context.Background()

	// 1. Simulate a mixed DNA+protein alignment (any PHYLIP file works the
	// same way; see examples/quickstart). The simulation seed fixes the data,
	// the bootstrap seed below independently fixes the replicate draws.
	al, err := phylo.SimulateMixed(12, 2, 1, 400, 1.0, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alignment: %d taxa, %d sites\n", al.NumTaxa(), al.NumSites())

	// 2. Build the shared Dataset once and open one session over it. The
	// whole bootstrap fleet reuses this session's CLV buffers and schedules;
	// no per-replicate state is ever allocated.
	ds, err := phylo.NewDataset(al, phylo.DatasetOptions{Threads: 4, Schedule: phylo.ScheduleWeighted})
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()
	an, err := ds.NewAnalysis(phylo.AnalysisOptions{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	defer an.Close()

	// 3. Get an ML tree: a short SPR search so the session's topology is a
	// local optimum (bootstrapping a random starting tree would just measure
	// how bad it is — its NNI neighbors would win every replicate).
	res0, err := an.SearchWith(ctx, phylo.SearchOptions{MaxRounds: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ML tree log likelihood: %.4f\n", res0.LnL)

	// 4. Run the batched bootstrap: 100 replicate weight vectors, drawn
	// multinomially from the compressed patterns with a fixed seed (replicate
	// r depends only on the data, the seed, and r — growing the fleet never
	// changes replicates already drawn). Each replicate picks its favourite
	// topology among the ML tree and its 2(n-3) NNI neighbors.
	res, err := an.Bootstrap(ctx, 100, 1234)
	if err != nil {
		log.Fatal(err)
	}
	mlWins := 0
	for _, w := range res.ReplicateWinner {
		if w == 0 {
			mlWins++
		}
	}
	fmt.Printf("bootstrap: %d replicates over %d candidate topologies; ML tree won %d\n",
		res.Replicates, res.Candidates, mlWins)

	// 5. Read the support values. Each internal branch of the ML tree gets
	// the fraction of replicates whose winning topology contains the same
	// split; the annotated Newick carries them as integer percents. The
	// splits print in key order, so two runs print the same bytes.
	keys := make([]string, 0, len(res.Support))
	for key := range res.Support {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fmt.Printf("   split {%s}: %.0f%% support\n", key, 100*res.Support[key])
	}
	fmt.Printf("support tree: %s\n", res.TreeNewick)
}
