package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// The annotation grammar. Directives are ordinary //-comment lines of the
// form //plk:<name>; Go tooling treats //word: lines as directives, so they
// never render in godoc. Where a directive appears decides its scope:
//
//	//plk:deterministic   package doc: every function in the package is a
//	                      deterministic scope. Function doc: that function.
//	//plk:hotpath         function doc: the body must stay allocation-free.
//	//plk:regions         package doc: cancellation checks are restricted
//	                      to //plk:regionboundary functions.
//	//plk:regionboundary  function doc: this function may consult ctx.
//	//plk:documented      package doc: every exported identifier needs a
//	                      doc comment (doclint).
//	//plk:allow(rule) why line comment: waive `rule` on this line and the
//	                      next. Function doc: waive `rule` in the whole
//	                      body. The reason text is mandatory.
const (
	dirDeterministic  = "deterministic"
	dirHotpath        = "hotpath"
	dirRegions        = "regions"
	dirRegionBoundary = "regionboundary"
	dirDocumented     = "documented"
)

// knownDirectives is the closed set the hygiene analyzer accepts.
var knownDirectives = map[string]bool{
	dirDeterministic:  true,
	dirHotpath:        true,
	dirRegions:        true,
	dirRegionBoundary: true,
	dirDocumented:     true,
}

var (
	directiveRe = regexp.MustCompile(`^//plk:([a-z]+)(.*)$`)
	allowRe     = regexp.MustCompile(`^//plk:allow\(([a-z-]+)(?:\s*,\s*([^)]*))?\)\s*(.*)$`)
)

// allowSpan is one waiver: rule suppressed on lines [from, to] of file.
type allowSpan struct {
	file     string
	from, to int
	rule     string
	reason   string
}

// badDirective is a malformed //plk: comment (unknown name, missing allow
// reason); the Directives analyzer reports these.
type badDirective struct {
	pos token.Pos
	msg string
}

// directiveIndex is the per-package directive database built once at load.
type directiveIndex struct {
	pkgDirs map[string]bool
	allows  []allowSpan
	bad     []badDirective
}

// hasDirective reports whether a comment group contains //plk:<name>.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if m := directiveRe.FindStringSubmatch(c.Text); m != nil && m[1] == name && strings.TrimSpace(m[2]) == "" {
			return true
		}
	}
	return false
}

// pkgHas reports whether the package carries //plk:<name> in any file's
// package doc.
func (d *directiveIndex) pkgHas(name string) bool { return d.pkgDirs[name] }

// allowedAt reports whether a waiver for rule covers the position.
func (d *directiveIndex) allowedAt(pos token.Position, rule string) bool {
	for _, a := range d.allows {
		if a.rule == rule && a.file == pos.Filename && a.from <= pos.Line && pos.Line <= a.to {
			return true
		}
	}
	return false
}

// indexDirectives scans every comment in the package for plk: directives:
// package-scope directives from package docs, line- and function-scoped
// allow waivers, and malformed directives for the hygiene check.
func indexDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	d := &directiveIndex{pkgDirs: make(map[string]bool)}
	for _, f := range files {
		if f.Doc != nil {
			for _, c := range f.Doc.List {
				if m := directiveRe.FindStringSubmatch(c.Text); m != nil {
					name := m[1]
					if name == "allow" {
						d.bad = append(d.bad, badDirective{c.Pos(), "plk:allow has no effect in a package doc comment"})
						continue
					}
					if !knownDirectives[name] {
						d.bad = append(d.bad, badDirective{c.Pos(), "unknown directive plk:" + name})
						continue
					}
					d.pkgDirs[name] = true
				}
			}
		}
		// Function-doc allows cover the whole body; every other comment's
		// allow covers its own line and the next (so a comment above the
		// offending statement and a trailing comment both work).
		funcDocs := make(map[*ast.CommentGroup]*ast.FuncDecl)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				funcDocs[fd.Doc] = fd
			}
		}
		for _, cg := range f.Comments {
			fd := funcDocs[cg]
			for _, c := range cg.List {
				m := directiveRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				if m[1] != "allow" {
					if !knownDirectives[m[1]] && cg != f.Doc {
						d.bad = append(d.bad, badDirective{c.Pos(), "unknown directive plk:" + m[1]})
					}
					continue
				}
				am := allowRe.FindStringSubmatch(c.Text)
				if am == nil {
					d.bad = append(d.bad, badDirective{c.Pos(), "malformed plk:allow; want plk:allow(rule) reason"})
					continue
				}
				rule, reason := am[1], strings.TrimSpace(am[2])
				if reason == "" {
					reason = strings.TrimSpace(am[3])
				}
				if reason == "" {
					d.bad = append(d.bad, badDirective{c.Pos(), "plk:allow(" + rule + ") needs a reason"})
					continue
				}
				span := allowSpan{file: fset.Position(c.Pos()).Filename, rule: rule, reason: reason}
				if fd != nil {
					span.from = fset.Position(fd.Pos()).Line
					span.to = fset.Position(fd.End()).Line
				} else {
					line := fset.Position(c.Pos()).Line
					span.from, span.to = line, line+1
				}
				d.allows = append(d.allows, span)
			}
		}
	}
	return d
}

// Directives is the hygiene analyzer: it reports malformed plk: directives
// (unknown names, allow waivers without a reason), so annotation typos fail
// the gate instead of silently disabling a check.
var Directives = &Analyzer{
	Name: "directives",
	Doc:  "report malformed or unknown //plk: annotation directives",
	Run: func(pass *Pass) {
		for _, b := range pass.Pkg.directives.bad {
			pass.Reportf(b.pos, "syntax", "%s", b.msg)
		}
	},
}

// funcScope resolves whether a function is inside a named scope: either the
// package is annotated at package scope (pkgDir) or the function's own doc
// carries the directive.
func funcScope(pass *Pass, fd *ast.FuncDecl, pkgDir, funcDir string) bool {
	if pkgDir != "" && pass.Pkg.directives.pkgHas(pkgDir) {
		return true
	}
	return hasDirective(fd.Doc, funcDir)
}
