package obs

import (
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("plk_test_total", "test counter", Label{"kind", "a"})
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("plk_test_gauge", "test gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %v, want 4", got)
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("plk_x_total", "x", Label{"w", "0"})
	b := r.Counter("plk_x_total", "x", Label{"w", "0"})
	if a.s != b.s {
		t.Fatal("same (name, labels) must resolve to the same series")
	}
	c := r.Counter("plk_x_total", "x", Label{"w", "1"})
	if a.s == c.s {
		t.Fatal("different labels must be distinct series")
	}
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("aggregated value = %v, want 2", a.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("plk_y_total", "y")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("plk_y_total", "y")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("plk_h_seconds", "h", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`plk_h_seconds_bucket{le="0.1"} 1`,
		`plk_h_seconds_bucket{le="1"} 3`,
		`plk_h_seconds_bucket{le="10"} 4`,
		`plk_h_seconds_bucket{le="+Inf"} 5`,
		`plk_h_seconds_count 5`,
		"# TYPE plk_h_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.GaugeFunc("plk_fn_gauge", "fn", func() float64 { return -n })
	n = 42
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "plk_fn_gauge -42") {
		t.Fatalf("func metrics not evaluated at scrape:\n%s", b.String())
	}
}

// expositionLine matches a Prometheus text-format sample or comment line.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN))$`)

func TestExpositionWellFormedAndSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("plk_b_total", "b", Label{"k", `quote " backslash \ done`}).Inc()
	r.Counter("plk_a_total", "a").Add(1)
	r.Histogram("plk_c_seconds", "c", []float64{0.5}).Observe(0.1)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	var familiesSeen []string
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
		if strings.HasPrefix(line, "# HELP ") {
			familiesSeen = append(familiesSeen, strings.Fields(line)[2])
		}
	}
	want := []string{"plk_a_total", "plk_b_total", "plk_c_seconds"}
	if len(familiesSeen) != len(want) {
		t.Fatalf("families = %v, want %v", familiesSeen, want)
	}
	for i := range want {
		if familiesSeen[i] != want[i] {
			t.Fatalf("families not sorted: %v", familiesSeen)
		}
	}
	if !strings.Contains(out, `k="quote \" backslash \\ done"`) {
		t.Errorf("label escaping wrong:\n%s", out)
	}
}

func TestSnapshotFlattensHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("plk_s_total", "s").Add(3)
	h := r.Histogram("plk_s_seconds", "s", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(5)
	byName := map[string]float64{}
	for _, s := range r.Snapshot() {
		key := s.Name
		for _, l := range s.Labels {
			key += "|" + l.Key + "=" + l.Value
		}
		byName[key] = s.Value
	}
	for key, want := range map[string]float64{
		"plk_s_total":                  3,
		"plk_s_seconds_bucket|le=1":    1,
		"plk_s_seconds_bucket|le=2":    1,
		"plk_s_seconds_bucket|le=+Inf": 2,
		"plk_s_seconds_sum":            5.5,
		"plk_s_seconds_count":          2,
	} {
		if got, ok := byName[key]; !ok || got != want {
			t.Errorf("snapshot[%s] = %v (present %v), want %v", key, got, ok, want)
		}
	}
}

func TestUpdatesAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("plk_alloc_total", "a")
	g := r.Gauge("plk_alloc_gauge", "a")
	h := r.Histogram("plk_alloc_seconds", "a", []float64{0.001, 0.01, 0.1, 1})
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(2)
		h.Observe(0.05)
	}); n != 0 {
		t.Fatalf("metric updates allocate %v allocs/op, want 0", n)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("plk_conc_total", "c")
	h := r.Histogram("plk_conc_seconds", "c", []float64{0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %v, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestTracerChromeJSON(t *testing.T) {
	tr := NewTracer(16)
	base := time.Now()
	tr.Span("newview", "region", 0, base, 2*time.Millisecond, Arg{"ops", 128})
	tr.Span("newview", "region", 1, base.Add(time.Millisecond), time.Millisecond)
	tr.Instant("rebalance", "schedule", -1, Arg{"imbalance", 0.25})
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, b.String())
	}
	var complete, instant, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
			if ev["dur"].(float64) <= 0 {
				t.Errorf("complete event with non-positive dur: %v", ev)
			}
		case "i":
			instant++
		case "M":
			meta++
			if ev["name"] != "thread_name" {
				t.Errorf("unexpected metadata event: %v", ev)
			}
		}
	}
	if complete != 2 || instant != 1 {
		t.Fatalf("events: %d complete, %d instant; want 2, 1", complete, instant)
	}
	if meta != 3 { // worker 0, worker 1, process (-1)
		t.Fatalf("thread_name metadata events = %d, want 3", meta)
	}
}

func TestTracerBoundedDrops(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		tr.Instant("e", "t", 0)
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d, want 2", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped())
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Span("x", "y", 0, time.Now(), time.Second)
	tr.Instant("x", "y", 0)
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must be inert")
	}
}
