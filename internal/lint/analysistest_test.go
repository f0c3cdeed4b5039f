package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// This file is a miniature analysistest: fixtures live under
// testdata/src/<name> as complete packages, offending lines carry trailing
// `// want "regex"` comments, and runFixture copies the package into a
// throwaway module, loads it through the real loader, runs the analyzers,
// and requires an exact match between reported and expected diagnostics —
// every want must fire, and nothing else may. `// want+N "regex"` expects
// the diagnostic N lines below the comment, for cases where a trailing
// comment would change the analyzer's input (doc comments, allow reasons).

var wantRe = regexp.MustCompile(`//\s*want(\+\d+)?\s+"((?:[^"\\]|\\.)*)"`)

// expectation is one `// want` comment: file base name, line, message regex.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// runFixture loads testdata/src/<name> in a fresh module and checks the
// analyzers' diagnostics against the fixture's want comments.
func runFixture(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	srcDir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatalf("reading fixture %s: %v", name, err)
	}

	mod := t.TempDir()
	if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte("module fixture\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgDir := filepath.Join(mod, name)
	if err := os.Mkdir(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var expects []expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pkgDir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(strings.NewReader(string(data)))
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				re, err := regexp.Compile(m[2])
				if err != nil {
					t.Fatalf("%s/%s:%d: bad want regex %q: %v", name, e.Name(), line, m[2], err)
				}
				offset := 0
				if m[1] != "" {
					offset, _ = strconv.Atoi(m[1][1:])
				}
				expects = append(expects, expectation{file: e.Name(), line: line + offset, re: re})
			}
		}
	}

	pkgs, err := Load(mod, "./"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	for _, p := range pkgs {
		for _, e := range p.Errs {
			t.Errorf("fixture %s: load error: %v", name, e)
		}
	}
	diags := Run(pkgs, analyzers)

	matched := make([]bool, len(expects))
	for _, d := range diags {
		text := d.Analyzer + "(" + d.Rule + "): " + d.Message
		found := false
		for i, e := range expects {
			if !matched[i] && e.file == filepath.Base(d.Pos.Filename) && e.line == d.Pos.Line && e.re.MatchString(text) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fixture %s: unexpected diagnostic %s:%d: %s", name, filepath.Base(d.Pos.Filename), d.Pos.Line, text)
		}
	}
	for i, e := range expects {
		if !matched[i] {
			t.Errorf("fixture %s: expected diagnostic at %s:%d matching %q did not fire", name, e.file, e.line, e.re)
		}
	}
}

func TestDeterminismFixture(t *testing.T) { runFixture(t, "det", Determinism) }
func TestHotpathFixture(t *testing.T)     { runFixture(t, "hot", Hotpath) }
func TestRegionCtxFixture(t *testing.T)   { runFixture(t, "region", RegionCtx) }
func TestDocLintFixture(t *testing.T)     { runFixture(t, "doc", DocLint) }
func TestDirectivesFixture(t *testing.T)  { runFixture(t, "dirs", Directives) }
