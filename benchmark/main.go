// Command benchmark is the repository's end-to-end benchmark: time to
// solution of the phylo facade's analyses and latency of the plkd daemon on
// five named workloads, and, in a separate traced pass, a per-layer table.
// BENCHMARK.json at the root of the repository names this command, its
// workloads and its metrics; README.md in this directory explains them.
//
//	go run -C benchmark . --workload p1000_newpar --seed 42 --seconds 10 --trace 0
//	go run -C benchmark .                      # all five workloads, untraced
//	go run -C benchmark . -trace 1             # all five, per-layer tables and traces
//	go run -C benchmark . -compare A.jsonl B.jsonl
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxW caps the worker threads and client connections of every workload.
const maxW = 4

// spareCores is what the benchmark leaves to the rest of the machine: the
// kernel, the go command that started it, the host. The process runs at
// GOMAXPROCS = cores - spareCores (at least 1), collector included. On the
// 2-vCPU reference box that is one P: with two, the pool's second worker, the
// collector's background workers and every goroutine wake-up cross to the
// second vCPU, which the host schedules when its neighbours let it. In series
// of 130 to 230 solves of the issue's p1000_newpar, one after the other, the
// solve time's inter-quartile range was 39% of its median on two workers and
// 16% on one P (README.md, 'Steadiness').
const spareCores = 1

// usableProcs is the GOMAXPROCS of a run on a host of the given core count.
func usableProcs(cores int) int { return max(1, cores-spareCores) }

// loadWidth is W, the worker threads of the multi-thread workloads and the
// client connections of plkd_evaluate: one per usable core, at most maxW. On
// the 2-vCPU reference box W is 1: the multi-thread workloads run on one
// worker, and the report says parallel_resolved false. Two workers on its two
// vCPUs took longer than one (README.md, 'Findings').
func loadWidth(cores int) int { return min(usableProcs(cores), maxW) }

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	instance int64 // seeds every workload's alignment and the analysis workloads' starting tree
	seconds  float64
	trace    bool
	smoke    bool
	W        int
	traceDir string
	out      string
}

// budget is the run's measuring time.
func (c config) budget() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// sizes are the counts that do not come from the time budget. A run measures
// in rounds (see runAnalysisWorkload and runDaemonWorkload) until its budget
// is spent.
type sizes struct {
	minRounds int // rounds, whatever the budget
	// setupsPerRound is the bytes -> ready repetitions at the start of each
	// round. Nine: the first two after a yardstick reading run cold (1.6x and
	// 1.2x), and with nine the run's median sits among the warm ones.
	setupsPerRound int
	evalsPerWindow int // analysis: evaluates in a round's window (100: the p90 has ten samples beyond it)
	warmup         int // plkd: discarded requests per client before the timed phase
	windowRequests int // plkd: requests per client in a round's window
	tracedRequests int // plkd: requests per client in each window of the traced pass
}

func (c config) size() sizes {
	if c.smoke {
		return sizes{minRounds: 2, setupsPerRound: 1, evalsPerWindow: 10, warmup: 5, windowRequests: 30, tracedRequests: 30}
	}
	return sizes{minRounds: 10, setupsPerRound: 9, evalsPerWindow: 100, warmup: 100, windowRequests: 200, tracedRequests: 500}
}

// host stamps every output object, so a baseline recorded on the wrong class
// of machine cannot pass for a scaling curve.
type host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	W          int    `json:"W"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Instance   int64  `json:"instance"`
	// RSSReset says what peak_rss_mb measured on this host: true, the median
	// of the peaks of single reps (the kernel let the run reset VmHWM); false,
	// the high-water mark of the whole process, harness included.
	RSSReset bool `json:"rss_reset"`
}

func hostStamp(cfg config) host {
	h := host{
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), W: cfg.W,
		CPU: "unknown", GoVersion: runtime.Version(), Commit: "unknown", Seed: cfg.seed, Instance: cfg.instance,
		RSSReset: resetPeakRSS(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if b, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

// checks counts the operations a run attempted and those that failed or
// produced a wrong output; their ratio is the run's fail ratio.
type checks struct {
	attempted, failed int
	notes             []string
}

// op counts one operation; a failed one keeps its reason (the first few).
func (c *checks) op(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.notes) < 5 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// metricValue is one reported metric; Dist is set when the value is the
// median of samples taken inside the run.
type metricValue struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Dist  *summary `json:"dist,omitempty"`
}

// tail is the highest percentile a latency sample supports (at least ten
// samples beyond it).
type tail struct {
	Percentile float64 `json:"percentile"`
	ValueMS    float64 `json:"value_ms"`
	N          int     `json:"n"`
}

func topPercentile(latMS []float64) *tail {
	p := highestPercentile(len(latMS))
	if p == 0 {
		return nil
	}
	return &tail{p, percentile(latMS, p), len(latMS)}
}

// report is the full output object of one run of one workload.
type report struct {
	Host             host                   `json:"host"`
	Workload         string                 `json:"workload"`
	Trace            bool                   `json:"trace"`
	Smoke            bool                   `json:"smoke,omitempty"`
	Seconds          float64                `json:"seconds"`
	ParallelResolved bool                   `json:"parallel_resolved"`
	Correct          bool                   `json:"correct"`
	Attempted        int                    `json:"attempted"`
	Failed           int                    `json:"failed"`
	FailRatio        float64                `json:"fail_ratio"`
	Failures         []string               `json:"failures,omitempty"`
	Metrics          map[string]metricValue `json:"metrics"`
	TopPercentile    *tail                  `json:"eval_top_percentile,omitempty"`
	Identity         *identity              `json:"identity,omitempty"`
	SelfSeconds      map[string]float64     `json:"self_seconds,omitempty"`
	TraceFile        string                 `json:"trace_file,omitempty"`
	Raw              map[string][]float64   `json:"raw,omitempty"`

	checks checks
}

func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

// setDist reports the median of samples, with their distribution.
func (r *report) setDist(name, unit string, samples []float64) {
	s := summarize(samples)
	r.Metrics[name] = metricValue{Value: s.Median, Unit: unit, Dist: &s}
}

// setLayers reports every per-layer metric; one that does not apply to the
// workload was never computed and reads 0.
func (r *report) setLayers(values map[string]float64) {
	for _, m := range perLayer {
		r.set(m.Name, m.Unit, values[m.Name])
	}
}

// run executes one workload in this process and returns its report.
func run(cfg config) (*report, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	// Threads or clients above the cores that can run them measure
	// oversubscription, not the program.
	if t := w.threads(cfg.W); t > runtime.NumCPU() || t > runtime.GOMAXPROCS(0) {
		return nil, fmt.Errorf("workload %s would run %d threads on %d cores (GOMAXPROCS %d)", w.name, t, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	rep := &report{
		Host: hostStamp(cfg), Workload: w.name, Trace: cfg.trace, Smoke: cfg.smoke, Seconds: cfg.seconds,
		ParallelResolved: cfg.W > 1, Metrics: map[string]metricValue{},
	}
	switch {
	case w.daemon:
		err = runDaemonWorkload(cfg, w, rep)
	case cfg.trace:
		err = traceAnalysisWorkload(cfg, w, rep)
	default:
		err = runAnalysisWorkload(cfg, w, rep)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	rep.Attempted, rep.Failed, rep.Failures = rep.checks.attempted, rep.checks.failed, rep.checks.notes
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	if rep.Attempted > 0 {
		rep.FailRatio = float64(rep.Failed) / float64(rep.Attempted)
	}
	return rep, nil
}

// resultLine is the last line of a run's standard output, the driver's
// contract: exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the human-readable table, the full report object and, last,
// the result line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s  trace=%v  seed=%d  instance=%d  W=%d  cores=%d  gomaxprocs=%d  parallel_resolved=%v\n",
		r.Workload, r.Trace, r.Host.Seed, r.Host.Instance, r.Host.W, r.Host.Cores, r.Host.GOMAXPROCS, r.ParallelResolved)
	fmt.Fprintf(w, "host %s  %s  commit %s  rss_reset=%v\n", r.Host.CPU, r.Host.GoVersion, r.Host.Commit, r.Host.RSSReset)
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-34s %14.6g %-6s", d.Name, m.Value, m.Unit)
		if s := m.Dist; s != nil {
			fmt.Fprintf(w, "  n=%d min=%.6g q1=%.6g q3=%.6g max=%.6g", s.N, s.Min, s.Q1, s.Q3, s.Max)
		}
		fmt.Fprintln(w)
	}
	listed := map[string]bool{}
	for _, d := range defs {
		listed[d.Name] = true
	}
	for _, name := range sortedKeys(r.Metrics) {
		if m := r.Metrics[name]; !listed[name] {
			fmt.Fprintf(w, "  (%s %.6g %s, as measured)\n", name, m.Value, m.Unit)
		}
	}
	if t := r.TopPercentile; t != nil {
		fmt.Fprintf(w, "  evaluate latency p%g = %.4g ms, the highest percentile with ten samples beyond it (n=%d)\n", t.Percentile, t.ValueMS, t.N)
	}
	if id := r.Identity; id != nil {
		fmt.Fprintf(w, "  per solve: facade spans %.4f s = regions %.4f s + own time %.4f s (gap %+.2f%%)\n",
			id.FacadeS, id.RegionS, id.SelfS, 100*id.gap())
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  trace written to %s\n", r.TraceFile)
	}
	fmt.Fprintf(w, "  fail_ratio %d/%d\n", r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", full)

	line := resultLine{r.Correct, r.Attempted, r.Failed, map[string]metricValue{}}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		line.Metrics[d.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// appendReport adds the report as one line to the set file at path.
func appendReport(path string, r *report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a fresh child process each, so that peak
// memory and collector state belong to one workload, and prints one combined
// result line. It reports whether every workload's outputs were correct.
func runAll(cfg config, args []string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	combined := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.name}, args...)...)
		var stdout bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return false, fmt.Errorf("workload %s: %w", w.name, err)
		}
		var last string
		sc := bufio.NewScanner(&stdout)
		sc.Buffer(make([]byte, 1<<16), 1<<26)
		for sc.Scan() {
			last = sc.Text()
		}
		var line resultLine
		if err := json.Unmarshal([]byte(last), &line); err != nil {
			return false, fmt.Errorf("workload %s: result line: %w", w.name, err)
		}
		combined.Correct = combined.Correct && line.Correct
		combined.Attempted += line.Attempted
		combined.Failed += line.Failed
		for name, m := range line.Metrics {
			combined.Metrics[w.name+"."+name] = m
		}
	}
	last, err := json.Marshal(combined)
	if err != nil {
		return false, err
	}
	fmt.Printf("%s\n", last)
	return combined.Correct, nil
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 42, "seed the inputs are generated from")
	flag.Int64Var(&cfg.instance, "instance", defaultInstance, "seed of every workload's alignment and starting tree, which --seed does not change")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "measuring time of one run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced pass, per-layer metrics and a Chrome trace; 0: end-to-end metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs and rep counts, to test the benchmark itself")
	flag.StringVar(&cfg.traceDir, "trace-dir", "bench_out", "directory the traced pass writes its Chrome traces to")
	flag.StringVar(&cfg.out, "out", "", "append each run's report to this file, one JSON object a line (input of -compare)")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	doCompare := flag.Bool("compare", false, "compare two report files: -compare A.jsonl B.jsonl")
	flag.Parse()
	cfg.trace = traceFlag != 0
	// A GOMAXPROCS the caller set lower stands, and run() refuses a workload
	// that no longer fits.
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), usableProcs(runtime.NumCPU())))
	cfg.W = loadWidth(runtime.NumCPU())

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	switch {
	case *manifest:
		if err := writeManifest(os.Stdout); err != nil {
			fail(err)
		}
	case *doCompare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two report files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if worse > 0 {
			os.Exit(1)
		}
	case cfg.workload == "":
		var args []string
		flag.Visit(func(f *flag.Flag) { args = append(args, "-"+f.Name+"="+f.Value.String()) })
		ok, err := runAll(cfg, args)
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		rep, err := run(cfg)
		if err != nil {
			fail(err)
		}
		if cfg.out != "" {
			if err := appendReport(cfg.out, rep); err != nil {
				fail(err)
			}
		}
		if err := rep.print(os.Stdout); err != nil {
			fail(err)
		}
	}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
