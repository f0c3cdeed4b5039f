package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// TestManifestMatchesFile keeps BENCHMARK.json at the root of the repository
// equal to the tables this program measures by. Regenerate it with
// `go run -C benchmark . -manifest > BENCHMARK.json`.
func TestManifestMatchesFile(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("BENCHMARK.json differs from -manifest output; regenerate it")
	}
}

// TestManifestWithinContract checks the limits the driver refuses a
// BENCHMARK.json for.
func TestManifestWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("why of %s has %d characters", w.name, len(w.why))
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, m := range endToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound %v of %s", m.Bound, m.Name)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == lower
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("unit %q of %s outside the contract", m.Unit, m.Name)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("direction %q of %s", m.Better, m.Name)
		}
	}
	for _, m := range perLayer {
		use(m.Name)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}
