// Command plkvet is the repo's multichecker: it runs the custom
// internal/lint analyzer suite (determinism, hotpath, regionctx, doclint,
// plus the //plk: directive hygiene check) over the
// requested packages, and — when an allowlist is present — the
// bounds-check-elimination gate over the fused kernel package. CI runs it
// as a hard gate:
//
//	go run ./cmd/plkvet ./...
//
// A clean run exits 0 and prints one summary line; findings print in the
// conventional file:line:col form and exit 1. The BCE allowlist is
// refreshed deliberately with -bce-rewrite (review the diff like any other
// change). See DESIGN.md "Static analysis and enforced invariants" for the
// annotation grammar the analyzers enforce.
package main

import (
	"flag"
	"fmt"
	"os"

	"phylo/internal/lint"
)

func main() {
	var (
		bcePkg     = flag.String("bce", "./internal/core", "package pattern for the bounds-check-elimination gate (empty disables)")
		bceAllow   = flag.String("bce-allow", "internal/lint/bce_allow.txt", "bounds-check allowlist path (missing file disables the gate)")
		bceRewrite = flag.Bool("bce-rewrite", false, "regenerate the bounds-check allowlist from the current compiler output and exit")
		verbose    = flag.Bool("v", false, "print informational notes (ceiling slack, version-skipped entries)")
	)
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *bceRewrite {
		if err := lint.RewriteBCEAllowlist(".", *bcePkg, *bceAllow); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("plkvet: rewrote %s\n", *bceAllow)
		return
	}

	failed := false

	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	checked := 0
	for _, p := range pkgs {
		for _, e := range p.Errs {
			failed = true
			fmt.Fprintf(os.Stderr, "plkvet: %s: %v\n", p.ImportPath, e)
		}
		if p.Types != nil {
			checked++
		}
	}
	diags := lint.Run(pkgs, lint.All())
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		failed = true
	}

	bceRan := false
	if *bcePkg != "" {
		if _, err := os.Stat(*bceAllow); err == nil {
			res, err := lint.CheckBCE(".", *bcePkg, *bceAllow)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			bceRan = true
			for _, p := range res.Problems {
				fmt.Printf("bce: %s\n", p)
				failed = true
			}
			if *verbose {
				for _, n := range res.Notes {
					fmt.Fprintf(os.Stderr, "bce note: %s\n", n)
				}
			}
		}
	}

	if failed {
		fmt.Fprintf(os.Stderr, "plkvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
	gate := ""
	if bceRan {
		gate = " + BCE gate"
	}
	fmt.Printf("plkvet: %d package(s) clean (%d analyzers%s)\n", checked, len(lint.All()), gate)
}
