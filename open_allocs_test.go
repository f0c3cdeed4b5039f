package phylo

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestDatasetOpenAllocs pins the allocations of opening a dataset from its
// bytes, what the benchmark's setup_s times: ReadPhylip, the partition file,
// NewDataset, the first NewAnalysis and Close, on the p1000_newpar shape (8
// taxa, 10 DNA partitions of 50 columns) and the mixed_search_boot shape (8
// taxa, 4 DNA and 2 protein partitions of 50 columns, weighted schedule). A
// constant preset's eigensystem is built once per process, a pattern
// allocates its key only when it is new and the Gamma rates are computed once
// a dataset, so the count grows with partitions and patterns, not with
// characters (1,594 and 958 before, when every column allocated a key and
// every SYN20 call decomposed its matrix).
func TestDatasetOpenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	// A collection mid-run can empty the dataset's buffer pool between the
	// session's Get and Put; that would be counted as the open's own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name   string
		al     func() (*Alignment, error)
		ds     DatasetOptions
		budget float64
	}{
		{"p1000_newpar", func() (*Alignment, error) { return SimulateGrid(8, 10000, 1000, 0.05, 42) },
			DatasetOptions{Threads: 1, Backend: BackendFused}, 772},
		{"mixed_search_boot", func() (*Alignment, error) { return SimulateMixed(8, 4, 2, 1000, 0.05, 42) },
			DatasetOptions{Threads: 1, Schedule: ScheduleWeighted, Backend: BackendFused}, 486},
	} {
		al, err := tc.al()
		if err != nil {
			t.Fatal(err)
		}
		var phylip, parts bytes.Buffer
		if err := al.WritePhylip(&phylip); err != nil {
			t.Fatal(err)
		}
		if err := al.WritePartitions(&parts); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			al, err := ReadPhylip(bytes.NewReader(phylip.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := al.SetPartitionsFromReader(bytes.NewReader(parts.Bytes())); err != nil {
				t.Fatal(err)
			}
			ds, err := NewDataset(al, tc.ds)
			if err != nil {
				t.Fatal(err)
			}
			an, err := ds.NewAnalysis(AnalysisOptions{Strategy: NewPar, PerPartitionBranchLengths: true, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := an.Close(); err != nil {
				t.Fatal(err)
			}
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations a dataset open (budget %.0f)", tc.name, allocs, tc.budget)
		if allocs > tc.budget {
			t.Errorf("%s: opening a dataset makes %.0f allocations, budget %.0f", tc.name, allocs, tc.budget)
		}
	}
}
