package core

import (
	"fmt"
	"os"
	"strings"

	"phylo/internal/alignment"
	"phylo/internal/schedule"
)

// The KernelBackend seam. A backend bundles (a) a CLV memory layout and (b)
// the per-pattern kernel bodies that run over it. Two backends exist:
//
//   - BackendGeneric — the seed path: pattern-major CLVs and the
//     bounds-checked, state-count-generic loops. It is the bit-exactness
//     oracle: every other backend must reproduce its total lnL, per-site
//     lnLs, and branch derivatives bit for bit (the same contract the
//     Specialize=false ablation keeps for the tip tables).
//   - BackendFused — category-major, state-contiguous, cache-line-aligned
//     CLV planes; 4-state (DNA) partitions run fully unrolled straight-line
//     multiply-add kernels that hoist the fixed category's transition matrix
//     into registers and sweep contiguous pattern lanes, while wider
//     alphabets (20-state AA) fall back to the layout-aware generic loop
//     over the same planes.
//
// The kernel implementation is selected per (alphabet, cats) via kernelFor;
// the layout is fixed per Shared (one CLV buffer backs all partitions).
// Bit-identity across backends holds because a layout moves values without
// reordering any floating-point accumulation: every madd sequence — the
// b-ascending P applications, the (cat, state)-ascending evaluate
// reduction, the eigenbasis projections — runs in the seed order in both
// backends, so only the addresses differ.

// Backend selects the kernel backend of a Shared and its sessions.
type Backend int

const (
	// BackendAuto resolves to the PLK_BACKEND environment variable when set,
	// and to BackendFused otherwise.
	BackendAuto Backend = iota
	// BackendGeneric is the seed pattern-major path, kept as the oracle.
	BackendGeneric
	// BackendFused is the cat-major layout with unrolled 4-state kernels.
	BackendFused
)

// String names the backend.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendGeneric:
		return "generic"
	case BackendFused:
		return "fused"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// ParseBackend resolves "auto", "generic", or "fused"/"vectorized".
func ParseBackend(name string) (Backend, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "auto":
		return BackendAuto, nil
	case "generic", "oracle":
		return BackendGeneric, nil
	case "fused", "fused4", "vectorized", "simd":
		return BackendFused, nil
	default:
		return BackendAuto, fmt.Errorf("core: unknown kernel backend %q (want auto, generic, or fused)", name)
	}
}

// resolveBackend turns BackendAuto into a concrete choice: the PLK_BACKEND
// environment variable when set (the CI oracle leg runs the whole test suite
// under PLK_BACKEND=generic), BackendFused otherwise. Explicit choices pass
// through untouched, so tests that pin both backends are immune to the
// environment.
func resolveBackend(b Backend) (Backend, error) {
	if b != BackendAuto {
		return b, nil
	}
	if env := os.Getenv("PLK_BACKEND"); env != "" {
		p, err := ParseBackend(env)
		if err != nil {
			return BackendAuto, fmt.Errorf("core: PLK_BACKEND: %w", err)
		}
		if p != BackendAuto {
			return p, nil
		}
	}
	return BackendFused, nil
}

// layoutKindFor maps a backend to its CLV geometry.
func layoutKindFor(b Backend) LayoutKind {
	if b == BackendFused {
		return LayoutCatMajor
	}
	return LayoutPatternMajor
}

// KernelBackend is the seam between the engine's region/span machinery and
// the per-pattern arithmetic: one implementation per (backend, alphabet,
// cats) class, dispatched once per chunk, never per pattern. The span
// contexts carry every binding the kernels need (layout strides, CLV/tip
// views, transition matrices, lookup tables), so an implementation is pure
// code with no state of its own.
type KernelBackend interface {
	// Name identifies the implementation in reports and tests.
	Name() string
	// Newview computes one pattern run of a newview step bound in c and
	// returns the processed pattern count.
	Newview(c *nvSpanCtx, run schedule.Run) int
	// Evaluate reduces one pattern run of the root log-likelihood under the
	// R-wide replicate weights bound in c: per pattern the site log likelihood
	// is computed once and accumulated into out[r] under replicate r's weight,
	// out having R entries. Returns the processed pattern count. Lane r
	// performs the exact floating-point sequence of a width-1 run over that
	// replicate's weights — the batched bootstrap's bit-identity contract.
	Evaluate(c *evalSpanCtx, run schedule.Run, out []float64) int
	// Sumtable fills one pattern run of the Newton sumtable bound in c and
	// returns the pattern count.
	Sumtable(c *sumSpanCtx, run schedule.Run) int
	// Derivatives reduces one pattern run under the replicate weights bound
	// in c: out holds R (d1, d2) pairs, out[2r] and out[2r+1] accumulating
	// replicate r's partials. Returns the processed pattern count. The
	// sumtable is pattern-major under every backend, so today a single
	// implementation serves both; the method sits on the seam so a future
	// backend can restructure the sumtable too.
	Derivatives(c *derivSpanCtx, run schedule.Run, out []float64) int
}

// kernelFor selects the kernel implementation for one partition: the fused
// backend runs the unrolled straight-line kernels on 4-state data and the
// layout-aware generic loop on anything wider; the generic backend always
// runs the generic loop (over the pattern-major layout its Shared built).
// cats participates in the signature because a future backend may specialize
// on it (e.g. a cats==4 full unroll); today every category count shares one
// implementation per alphabet.
func kernelFor(b Backend, t alignment.DataType, cats int) KernelBackend {
	if b == BackendFused && t.States() == 4 {
		return fusedDNAKernels{}
	}
	return genericKernels{}
}

// genericKernels is the layout-aware generic loop: state-count-generic
// bodies that read the span context's (base, patStride, catStride) triple,
// so the same code serves the pattern-major oracle and the fused backend's
// cat-major AA fallback. Under the pattern-major layout it executes the
// seed's exact operation sequence.
type genericKernels struct{}

func (genericKernels) Name() string { return "generic" }

func (genericKernels) Newview(c *nvSpanCtx, run schedule.Run) int {
	return c.processGeneric(run)
}

func (genericKernels) Evaluate(c *evalSpanCtx, run schedule.Run, out []float64) int {
	return c.processGeneric(run, out)
}

func (genericKernels) Sumtable(c *sumSpanCtx, run schedule.Run) int {
	return c.processGeneric(run)
}

func (genericKernels) Derivatives(c *derivSpanCtx, run schedule.Run, out []float64) int {
	return c.processGeneric(run, out)
}

// fusedDNAKernels is the 4-state straight-line backend: category-outer
// newview sweeps with the transition matrices hoisted out of the pattern
// loop, and fully unrolled per-pattern evaluate bodies — all over the
// cat-major, state-contiguous planes (see fused4.go).
type fusedDNAKernels struct{}

func (fusedDNAKernels) Name() string { return "fused4" }

func (fusedDNAKernels) Newview(c *nvSpanCtx, run schedule.Run) int {
	return c.processFused4(run)
}

func (fusedDNAKernels) Evaluate(c *evalSpanCtx, run schedule.Run, out []float64) int {
	return c.processFused4(run, out)
}

func (fusedDNAKernels) Sumtable(c *sumSpanCtx, run schedule.Run) int {
	// The sumtable region runs once per branch (its cost is amortized over
	// every Newton iteration), so the stride-aware generic body is fast
	// enough; the fused win is in newview and evaluate.
	return c.processGeneric(run)
}

func (fusedDNAKernels) Derivatives(c *derivSpanCtx, run schedule.Run, out []float64) int {
	return c.processGeneric(run, out)
}
