// Command plkbench times the hot likelihood kernels — evaluate, newview
// (one full traversal), the tip-heavy specialized-vs-generic and
// generic-vs-fused newview comparisons, the stealing fingerprint and the
// batched bootstrap — on the real goroutine pool at several thread counts
// and writes the results as JSON. CI runs it on every push, keeps the
// report as an artifact (BENCH_plk.json), and holds it to the floors of
// bench.CheckReport:
//
//	plkbench -scale 0.01 -threads 1,4,8 -out BENCH_plk.json
//	plkbench -check BENCH_plk.json
//
// -check FILE measures nothing: it validates the report in FILE and exits 1
// if the fused kernel is under 2x the generic one at 1 thread, the batched
// bootstrap is under 2x per replicate at 1 thread, or more than half the
// patterns migrated through steals at a thread count the host ran in
// parallel. The absolute ns/op in the report are for reading; the numbers
// that decide a change are the end-to-end ones of `go run -C benchmark .`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"phylo/internal/bench"
	"phylo/internal/core"
	"phylo/internal/obs"
	"phylo/internal/sigctx"
)

func main() {
	var (
		scale      = flag.Float64("scale", 0.01, "dataset column scale (d20_20000 grid)")
		seed       = flag.Int64("seed", 42, "simulation seed")
		threads    = flag.String("threads", "1,4,8", "comma-separated thread counts")
		out        = flag.String("out", "BENCH_plk.json", "output JSON path (- for stdout)")
		check      = flag.String("check", "", "validate this report JSON against the intra-run floors instead of measuring (exit 1 on violation)")
		backendF   = flag.String("backend", "auto", "kernel backend for the session timings: auto | generic | fused (auto honors PLK_BACKEND, default fused)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measurement run to this file")
		memprofile = flag.String("memprofile", "", "write an allocation (heap) profile to this file at exit")
		metricsF   = flag.Bool("metrics", false, "dump the timing loop's metrics registry (Prometheus text format) to stderr at exit")
		traceOut   = flag.String("trace", "", "write a Chrome-trace-event JSON file of the timing loop's per-worker region spans to this path")
	)
	flag.Parse()

	if *check != "" {
		if v := bench.CheckReport(readReport(*check)); len(v) > 0 {
			fmt.Fprintf(os.Stderr, "plkbench: %s violates %d floor(s):\n", *check, len(v))
			for _, m := range v {
				fmt.Fprintln(os.Stderr, "  "+m)
			}
			os.Exit(1)
		}
		fmt.Printf("%s meets the fused, bootstrap and steal floors\n", *check)
		return
	}
	// The microbench builds its own shared state per thread count, so the
	// backend choice flows through the documented BackendAuto resolution
	// path: validate the flag, then pin the environment for this process.
	// (The generic-vs-fused comparison section always measures both.)
	if b, err := core.ParseBackend(*backendF); err != nil {
		fatal(err)
	} else if b != core.BackendAuto {
		os.Setenv("PLK_BACKEND", b.String())
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	// First Ctrl-C cancels the measurement between benchmark sections; a
	// second hard-exits with a non-zero status instead of hanging on a
	// section already in flight.
	ctx, stop := sigctx.Notify(context.Background(), "plkbench")
	defer stop()

	var counts []int
	for _, f := range strings.Split(*threads, ",") {
		t, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fatal(fmt.Errorf("bad thread count %q: %w", f, err))
		}
		counts = append(counts, t)
	}
	var mobs *bench.MicrobenchObs
	if *metricsF || *traceOut != "" {
		mobs = &bench.MicrobenchObs{}
		if *metricsF {
			mobs.Metrics = obs.NewRegistry()
		}
		if *traceOut != "" {
			mobs.Tracer = obs.NewTracer(0)
		}
	}
	rep, err := bench.Microbench(ctx, counts, *scale, *seed, mobs)
	if err != nil {
		fatal(err)
	}
	writeReport(rep, *out)
	if mobs != nil {
		dumpObs(mobs, *traceOut)
	}
}

func readReport(path string) *bench.MicrobenchReport {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	rep := new(bench.MicrobenchReport)
	if err := json.Unmarshal(data, rep); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return rep
}

func writeReport(rep *bench.MicrobenchReport, out string) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}
	for _, kt := range rep.Timings {
		fmt.Printf("T=%-2d evaluate %12.0f ns/op   newview %12.0f ns/op\n",
			kt.Threads, kt.EvaluateNsOp, kt.NewviewNsOp)
	}
	for _, tc := range rep.TipCase {
		fmt.Printf("T=%-2d tip-heavy newview: specialized %10.0f ns/op   generic %10.0f ns/op   speedup %.2fx\n",
			tc.Threads, tc.SpecializedNsOp, tc.GenericNsOp, tc.Speedup)
	}
	for _, sm := range rep.Steal {
		fmt.Printf("T=%-2d steal: %6.0f steals  %8.0f patterns migrated (%.1f%% of processed)  time-imbalance %.3f  per-worker %v\n",
			sm.Threads, sm.StealCount, sm.StolenPatterns, 100*sm.MigratedFraction, sm.TimeImbalance, sm.WorkerSteals)
	}
	if c := rep.StealComparison; c != nil {
		fmt.Printf("steal-vs-weighted end state: static time-imbalance %.4f, steal %.4f (%.0f steals)\n",
			c.WeightedTimeImbalance, c.StealTimeImbalance, c.StealCount)
	}
	for _, bt := range rep.BackendCase {
		fmt.Printf("T=%-2d backend newview: generic %10.0f ns/op   fused %10.0f ns/op   speedup %.2fx\n",
			bt.Threads, bt.GenericNsOp, bt.FusedNsOp, bt.Speedup)
	}
	for _, bt := range rep.Bootstrap {
		fmt.Printf("T=%-2d bootstrap (R=%d): batched %8.0f reps/sec   independent %8.0f reps/sec   speedup %.2fx\n",
			bt.Threads, bt.Replicates, bt.BatchedRepsPerSec, bt.IndependentRepsPerSec, bt.Speedup)
	}
	if rep.Backend != "" {
		fmt.Printf("active kernel backend: %s\n", rep.Backend)
	}
	if rep.DatasetBytes > 0 {
		fmt.Printf("dataset memory footprint: %.2f MiB (shared state + one session)\n",
			float64(rep.DatasetBytes)/(1<<20))
	}
	fmt.Printf("wrote %s\n", out)
}

// dumpObs writes the optional observability artifacts: the metrics text goes
// to stderr (stdout may be the report when -out -), the trace to its file.
func dumpObs(mobs *bench.MicrobenchObs, tracePath string) {
	if mobs.Metrics != nil {
		if err := mobs.Metrics.WriteText(os.Stderr); err != nil {
			fatal(err)
		}
	}
	if mobs.Tracer != nil && tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := mobs.Tracer.WriteJSON(f); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote trace %s (%d spans, %d dropped)\n", tracePath, mobs.Tracer.Len(), mobs.Tracer.Dropped())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "plkbench:", err)
	os.Exit(1)
}
