package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// set holds, per workload and metric, the values of every run in one report
// file, and the in-run distribution of the last run that had one.
type set struct {
	values map[string]map[string][]float64
	dist   map[string]map[string]summary
	unit   map[string]string
	// rssReset is, per workload, what peak_rss_mb measured (host.rss_reset).
	rssReset map[string]bool
}

// loadSet reads a file of reports, one JSON object a line, as -out writes it.
func loadSet(path string) (*set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &set{map[string]map[string][]float64{}, map[string]map[string]summary{}, map[string]string{}, map[string]bool{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
			s.dist[r.Workload] = map[string]summary{}
		}
		s.rssReset[r.Workload] = r.Host.RSSReset
		for name, m := range r.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
			s.unit[name] = m.Unit
			if m.Dist != nil {
				s.dist[r.Workload][name] = *m.Dist
			}
		}
	}
	return s, sc.Err()
}

// summaryOf is the distribution a metric is judged by: over the runs of the
// file when it holds several, else over the samples inside its one run.
func (s *set) summaryOf(workload, metric string) summary {
	values := s.values[workload][metric]
	if d, ok := s.dist[workload][metric]; ok && len(values) == 1 {
		return d
	}
	return summarize(values)
}

// compareFiles prints one row per workload and metric present in both files:
// both medians, both inter-quartile ranges, the ratio with its base, and for
// the end-to-end metrics the bound and the verdict. It returns how many
// end-to-end pairs were worse.
func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	a, err := loadSet(pathA)
	if err != nil {
		return 0, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return 0, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tB/A (base = A median)\tbound\tverdict\n")
	worse := 0
	for _, wl := range workloads {
		for _, name := range sortedKeys(a.values[wl.name]) {
			if _, ok := b.values[wl.name][name]; !ok {
				continue
			}
			sa, sb := a.summaryOf(wl.name, name), b.summaryOf(wl.name, name)
			ratio := "n/a (base 0)"
			if sa.Median != 0 {
				ratio = fmt.Sprintf("%.3f (base %.6g)", sb.Median/sa.Median, sa.Median)
			}
			boundCol, v := "-", "-"
			if bound, higherIsBetter, ok := boundOf(name); ok {
				v = verdict(sa, sb, bound, higherIsBetter)
				if name == "peak_rss_mb" && a.rssReset[wl.name] != b.rssReset[wl.name] {
					// Per-rep peaks on one side, the whole process on the other.
					v = verdictUnresolved
				}
				boundCol = fmt.Sprintf("%.0f%%", 100*bound)
				if v == verdictWorse {
					worse++
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g] %d\t%.6g [%.6g, %.6g] %d\t%s\t%s\t%s\n",
				wl.name, name, a.unit[name], sa.Median, sa.Q1, sa.Q3, sa.N, sb.Median, sb.Q1, sb.Q3, sb.N, ratio, boundCol, v)
		}
	}
	return worse, tw.Flush()
}
