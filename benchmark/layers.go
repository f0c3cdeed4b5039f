package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"phylo"
	"phylo/internal/alignment"
	"phylo/internal/core"
	"phylo/internal/schedule"
	"phylo/internal/steal"
)

// This file holds every call the traced pass makes into a layer below the
// facade, so a change to one of those signatures is mended in one place.

// layerReps is how often each timed layer call is repeated; the median is
// reported.
const layerReps = 5

// timeCall runs fn layerReps times under spans and returns the median seconds.
func timeCall(rec *recorder, name string, fn func() error) (float64, error) {
	var times []float64
	for i := 0; i < layerReps; i++ {
		id := rec.begin(name, -1, i, 0)
		err := fn()
		times = append(times, rec.end(id))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(times), nil
}

// timeLayers makes the timed calls into the alignment, schedule, steal and
// phylo layers on the workload's own inputs and load shape.
func timeLayers(rec *recorder, in inputs, o phylo.DatasetOptions, out map[string]float64) error {
	var raw *alignment.Alignment
	var err error
	if out["alignment.parse_s"], err = timeCall(rec, "alignment.ReadPhylip", func() (err error) {
		raw, err = alignment.ReadPhylip(bytes.NewReader(in.phylip))
		return err
	}); err != nil {
		return err
	}
	out["alignment.mb_per_s"] = float64(len(in.phylip)) / 1e6 / out["alignment.parse_s"]
	parts, err := alignment.ParsePartitionFile(bytes.NewReader(in.parts), raw.NumSites())
	if err != nil {
		return err
	}
	var data *alignment.CompressedData
	if out["alignment.compress_s"], err = timeCall(rec, "alignment.Compress", func() (err error) {
		data, err = alignment.Compress(raw, parts, alignment.CompressOptions{})
		return err
	}); err != nil {
		return err
	}

	al, err := phylo.ReadPhylip(bytes.NewReader(in.phylip))
	if err != nil {
		return err
	}
	if err := al.SetPartitionsFromReader(bytes.NewReader(in.parts)); err != nil {
		return err
	}
	if out["phylo.new_dataset_s"], err = timeCall(rec, "phylo.NewDataset", func() error {
		ds, err := phylo.NewDataset(al, o)
		if err != nil {
			return err
		}
		return ds.Close()
	}); err != nil {
		return err
	}

	// The workload's spans, priced as the program prices them.
	const cats = 4
	sh, err := core.NewSharedWith(data, cats, o.Threads, o.Backend)
	if err != nil {
		return err
	}
	own, err := sh.ScheduleFor(o.Schedule)
	if err != nil {
		return err
	}
	spans := make([]schedule.Span, own.NumSpans())
	observed := make(schedule.PartitionCosts, len(spans))
	for i := range spans {
		spans[i] = own.Span(i)
		// A repricing that moves patterns: every third partition 1.5x dearer.
		observed[i] = spans[i].Cost * (1 + 0.5*float64(i%3/2))
	}
	for _, s := range []schedule.Strategy{schedule.Cyclic, schedule.Weighted, schedule.Measured} {
		if out["schedule.build_s."+s.String()], err = timeCall(rec, "schedule.New", func() error {
			_, err := schedule.New(s, o.Threads, spans)
			return err
		}); err != nil {
			return err
		}
	}
	if out["schedule.rebalance_s"], err = timeCall(rec, "schedule.Rebalance", func() error {
		_, err := own.Rebalance(observed)
		return err
	}); err != nil {
		return err
	}
	out["schedule.static_imbalance"] = own.Imbalance()
	if out["steal.layout_build_s"], err = timeCall(rec, "steal.NewLayout", func() error {
		steal.NewLayout(own, 0)
		return nil
	}); err != nil {
		return err
	}

	// Computed, not measured: an inner-inner newview reads two child CLVs and
	// writes one, states x categories doubles each. Tip children and cache
	// misses are ignored, so this is neither a floor nor a ceiling.
	var bytesMoved, patterns float64
	for _, p := range data.Parts {
		bytesMoved += float64(p.PatternCount) * float64(p.Type.States()) * cats * 8 * 3
		patterns += float64(p.PatternCount)
	}
	out["core.bytes_per_pattern_computed"] = bytesMoved / patterns
	return nil
}

// ---- registry families ----

// sumFamily adds up the samples of one family, optionally keeping only
// those whose label key has the given value.
func sumFamily(samples []phylo.MetricSample, name, key, value string) (sum float64) {
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		if key != "" {
			match := false
			for _, l := range s.Labels {
				match = match || l.Key == key && l.Value == value
			}
			if !match {
				continue
			}
		}
		sum += s.Value
	}
	return sum
}

// familyDelta is how much one family (or its series with the given label)
// grew between two snapshots.
func familyDelta(before, after []phylo.MetricSample, name, key, value string) float64 {
	return sumFamily(after, name, key, value) - sumFamily(before, name, key, value)
}

// regionWall is the wall-clock time spent inside parallel regions so far.
func regionWall(samples []phylo.MetricSample) float64 {
	return sumFamily(samples, "plk_region_seconds_sum", "", "")
}

// regionKinds are the program's region kind labels that have a per-layer row
// of their own.
var regionKinds = []string{"newview", "evaluate", "sumtable", "derivative", "other"}

// registryLayers derives the core, parallel and steal metrics from the
// change of the program's own metric families between two snapshots. Sums
// are divided by ops (solves or requests) so they read per operation.
func registryLayers(before, after []phylo.MetricSample, threads int, ops float64, out map[string]float64) {
	delta := func(name, key, value string) float64 { return familyDelta(before, after, name, key, value) }
	totalWall, totalRegions := delta("plk_region_seconds_sum", "", ""), delta("plk_regions_total", "", "")
	for _, kind := range regionKinds {
		out["core.region_s."+kind] = delta("plk_region_seconds_sum", "kind", kind) / ops
		out["core.regions."+kind] = delta("plk_regions_total", "kind", kind) / ops
	}
	// rate-eval and other share one row.
	out["core.region_s.other"] += delta("plk_region_seconds_sum", "kind", "rate-eval") / ops
	out["core.regions.other"] += delta("plk_regions_total", "kind", "rate-eval") / ops

	patterns := delta("plk_kernel_patterns_total", "", "")
	out["core.patterns"] = patterns / ops
	out["core.spans.tiptip"] = delta("plk_kernel_spans_total", "case", "tip-tip") / ops
	out["core.spans.tipinner"] = delta("plk_kernel_spans_total", "case", "tip-inner") / ops
	out["core.spans.inner"] = delta("plk_kernel_spans_total", "case", "inner-inner") / ops
	out["core.scalings"] = delta("plk_scaling_events_total", "", "") / ops

	busy, idle := delta("plk_worker_busy_seconds_total", "", ""), delta("plk_worker_idle_seconds_total", "", "")
	out["parallel.busy_s"] = busy / ops
	out["parallel.idle_s"] = idle / ops
	if busy+idle > 0 {
		out["parallel.idle_frac"] = idle / (busy + idle)
	}
	maxBusy := 0.0
	for w := 0; w < threads; w++ {
		maxBusy = math.Max(maxBusy, delta("plk_worker_busy_seconds_total", "worker", strconv.Itoa(w)))
	}
	if busy > 0 {
		out["parallel.time_imbalance"] = maxBusy / (busy / float64(threads))
	}
	if totalRegions > 0 {
		// At one thread the two sums are the same time added in another order.
		out["parallel.us_per_region_nonbusy"] = math.Max(0, totalWall-busy/float64(threads)) / totalRegions * 1e6
	}
	if patterns > 0 {
		out["core.ns_per_pattern"] = busy / patterns * 1e9
		newview := delta("plk_region_seconds_sum", "kind", "newview")
		if newview > 0 {
			out["core.gbps_computed"] = patterns * out["core.bytes_per_pattern_computed"] / newview / 1e9
		}
		out["steal.migrated_frac"] = delta("plk_stolen_patterns_total", "", "") / patterns
	}
	out["steal.steals"] = delta("plk_steals_total", "", "") / ops
	out["steal.stolen_patterns"] = delta("plk_stolen_patterns_total", "", "") / ops
	out["steal.races"] = delta("plk_steal_races_total", "", "") / ops
	out["schedule.rebalances"] = delta("plk_rebalances_total", "", "") / ops
}

// ---- process and machine ----

// procUsage is a reading of the Go runtime's and the process's counters.
type procUsage struct {
	allocBytes uint64
	gcCount    uint32
	gcPauseNS  uint64
	cpu        float64
}

func readUsage() procUsage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	cpu := 0.0
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return procUsage{m.TotalAlloc, m.NumGC, m.PauseTotalNs, cpu}
}

// usageLayers reports allocation, collection and CPU per operation between
// two readings.
func usageLayers(a, b procUsage, ops float64, out map[string]float64) {
	out["go.alloc_mb_per_op"] = float64(b.allocBytes-a.allocBytes) / 1e6 / ops
	out["go.gc_count_per_op"] = float64(b.gcCount-a.gcCount) / ops
	out["go.gc_pause_ms_per_op"] = float64(b.gcPauseNS-a.gcPauseNS) / 1e6 / ops
	out["proc.cpu_s_per_op"] = (b.cpu - a.cpu) / ops
}

// peakRSSMB is VmHWM of this process in MB (0 where /proc is missing).
func peakRSSMB() float64 { return procKB("/proc/self/status", "VmHWM:") / 1024 }

// resetPeakRSS sets VmHWM back to the current resident size and reports
// whether the kernel allowed it. The run resets it before every timed rep (or
// window) and reports the median of the peaks: the program's peak under the
// timed work, not the harness's (input generation, 60 set-ups in a burst, the
// oracle rep), and not the one rep in which the collector happened to start
// late. Where the kernel refuses, every peak covers the whole process so far;
// the host stamp says which of the two a report holds (rss_reset), and
// -compare does not judge peak_rss_mb between reports that differ in it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// procKB reads one "Field:  N kB" line of a /proc file (0 if absent).
func procKB(path, field string) float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// llcBytes is the size of the largest cache the first CPU reports.
func llcBytes() float64 {
	largest := 0.0
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(b))
		mult := 1.0
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			largest = math.Max(largest, v*mult)
		}
	}
	return largest
}

// streamBandwidth measures sustainable read bandwidth with all threads
// summing disjoint halves of one array of at least four times the last-level
// cache, so the kernel's computed GB/s has a machine figure beside it. The
// array is capped at an eighth of the memory available (and of the cgroup's
// limit) so a small box is not driven into swap; both sizes are reported and
// the README says how to read a capped figure.
func streamBandwidth(threads int, smoke bool, out map[string]float64) {
	llc := llcBytes()
	want := 4 * llc
	if want == 0 {
		want = 256 << 20
	}
	for _, limit := range []float64{procKB("/proc/meminfo", "MemAvailable:") * 1024, cgroupMemoryMax()} {
		if limit > 0 {
			want = math.Min(want, limit/8)
		}
	}
	if smoke {
		want = math.Min(want, 32<<20)
	}
	n := int(want) / 8
	a := make([]float64, n)
	for i := range a {
		a[i] = 1
	}
	best := math.Inf(1)
	for pass := 0; pass < 3; pass++ {
		sums := make([]float64, threads)
		done := make(chan struct{}, threads) // one send per worker
		start := time.Now()
		for w := 0; w < threads; w++ {
			go func(w int) {
				lo, hi := w*n/threads, (w+1)*n/threads
				s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
				for i := lo; i+3 < hi; i += 4 {
					s0 += a[i]
					s1 += a[i+1]
					s2 += a[i+2]
					s3 += a[i+3]
				}
				sums[w] = s0 + s1 + s2 + s3
				done <- struct{}{}
			}(w)
		}
		for w := 0; w < threads; w++ {
			<-done
		}
		best = math.Min(best, time.Since(start).Seconds())
		if sums[0] == 0 {
			panic("stream: array not read")
		}
	}
	out["machine.stream_gbps"] = float64(n) * 8 / best / 1e9
	out["machine.stream_array_mb"] = float64(n) * 8 / (1 << 20)
	out["machine.llc_mb"] = llc / (1 << 20)
}

// cgroupMemoryMax is the cgroup v2 memory limit in bytes, 0 if none.
func cgroupMemoryMax() float64 {
	b, err := os.ReadFile("/sys/fs/cgroup/memory.max")
	if err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
	if err != nil {
		return 0 // "max"
	}
	return v
}
