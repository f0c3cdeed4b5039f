package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// writeRuns appends one untraced report per solve_s value to a set file.
func writeRuns(t *testing.T, path, workload string, solve []float64, rss float64, rssReset bool) {
	t.Helper()
	for _, v := range solve {
		r := &report{Workload: workload, Host: host{RSSReset: rssReset}, Metrics: map[string]metricValue{}}
		r.set("solve_s", "s", v)
		r.set("peak_rss_mb", "MB", rss)
		r.set("eval_rps", "1/s", 1000/v)   // higher is better
		r.set("solve_regions", "count", 7) // reported beside the bounded metrics, never judged
		if err := appendReport(path, r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareFilesVerdicts(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	noisy := []float64{0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0}
	slow := make([]float64, len(steady))
	for i, v := range steady {
		slow[i] = v * 1.5
	}
	writeRuns(t, a, "p5000_1t", steady, 100, true)
	writeRuns(t, b, "p5000_1t", slow, 100, true)
	writeRuns(t, a, "p1000_newpar", noisy, 100, true)
	writeRuns(t, b, "p1000_newpar", noisy, 160, true)
	writeRuns(t, a, "p1000_oldpar", steady, 100, true)
	writeRuns(t, b, "p1000_oldpar", steady, 101, false) // the peaks measure different things

	var out bytes.Buffer
	worse, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if worse != 3 {
		t.Errorf("worse = %d, want 3 (solve_s and eval_rps on p5000_1t, peak_rss_mb on p1000_newpar)\n%s", worse, out.String())
	}
	row := func(workload, metric string) string {
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[0] == workload && f[1] == metric {
				return line
			}
		}
		t.Fatalf("no row for %s %s in\n%s", workload, metric, out.String())
		return ""
	}
	for _, c := range []struct{ workload, metric, verdict string }{
		{"p5000_1t", "solve_s", verdictWorse},
		{"p5000_1t", "peak_rss_mb", verdictOK},
		{"p5000_1t", "eval_rps", verdictWorse},
		{"p5000_1t", "solve_regions", "-"},
		{"p1000_newpar", "solve_s", verdictUnresolved},
		{"p1000_newpar", "peak_rss_mb", verdictWorse},
		{"p1000_oldpar", "solve_s", verdictOK},
		{"p1000_oldpar", "eval_rps", verdictOK},
		{"p1000_oldpar", "peak_rss_mb", verdictUnresolved},
	} {
		if r := row(c.workload, c.metric); !strings.HasSuffix(strings.TrimSpace(r), c.verdict) {
			t.Errorf("%s %s: row %q, want verdict %s", c.workload, c.metric, r, c.verdict)
		}
	}
	// Every ratio names its base.
	if r := row("p5000_1t", "solve_s"); !strings.Contains(r, "1.500 (base 1)") {
		t.Errorf("ratio without base in %q", r)
	}
}
