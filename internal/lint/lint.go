// Package lint is the repo's custom static-analysis suite: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// analyzer shape (this module builds offline against the standard library
// only, so the x/tools framework is deliberately not imported) plus the
// repo-specific analyzers that turn the codebase's load-bearing conventions
// into machine-checked invariants:
//
//   - determinism: annotated scopes must not iterate maps, read the clock,
//     draw from the global math/rand source, or spawn goroutines — the
//     conventions behind bit-identical likelihoods across executors.
//   - hotpath: annotated per-pattern kernel and deque functions must stay
//     allocation- and indirection-free (no append/make/new, no slice or map
//     composite literals, no closures, no defer, no interface conversions,
//     no map or channel operations, no context plumbing).
//   - regionctx: in packages annotated as region-structured, cancellation
//     may only be consulted by functions annotated as region boundaries,
//     never inside kernel spans.
//   - doclint: packages annotated as documented must carry doc comments on
//     every exported identifier (the PR 8 facade gate, folded in here).
//
// The analyzers are driven by cmd/plkvet (the repo's multichecker, a hard
// CI gate) and by analysistest-style fixture tests in this package. The
// sibling bounds-check-elimination gate (bce.go) is not an AST analyzer: it
// rebuilds internal/core with -d=ssa/check_bce and diffs the emitted
// bounds-check sites against the committed allowlist bce_allow.txt, so the
// fused kernels' bounds-check-free hot expressions are protected
// structurally rather than only by the benchmark floor.
//
// See DESIGN.md "Static analysis and enforced invariants" for the
// annotation grammar.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check over a type-checked package. It
// mirrors the x/tools go/analysis shape (Name, Doc, Run over a Pass) so the
// suite can migrate onto the real framework wholesale if the dependency
// ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow-waivers.
	Name string
	// Doc is the one-paragraph description plkvet prints with -help.
	Doc string
	// Run reports the analyzer's diagnostics for one package.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Pkg is the package under analysis.
	Pkg *Package

	diags *[]Diagnostic
}

// Fset returns the position set of the package under analysis.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the parsed syntax trees of the package under analysis.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypesInfo returns the type-checker facts for the package under analysis.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.TypesInfo }

// Reportf records one diagnostic at pos unless a plk:allow waiver for this
// analyzer's rule covers the position's line.
func (p *Pass) Reportf(pos token.Pos, rule string, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.directives.allowedAt(position, rule) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Rule:     rule,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: a position, the analyzer and rule that fired,
// and the human-readable message.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the analyzer that reported it.
	Analyzer string
	// Rule is the analyzer's sub-rule id (the name plk:allow waives).
	Rule string
	// Message is the finding text.
	Message string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s(%s): %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Rule, d.Message)
}

// Run applies every analyzer to every package and returns the combined
// diagnostics sorted by position. Packages that failed to load are skipped
// (the loader already surfaced their errors).
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// All returns the full analyzer suite in the order plkvet runs it. The
// directives hygiene check runs first so an annotation typo fails loudly
// instead of silently disabling the check it meant to configure.
func All() []*Analyzer {
	return []*Analyzer{
		Directives,
		Determinism,
		Hotpath,
		RegionCtx,
		DocLint,
	}
}
