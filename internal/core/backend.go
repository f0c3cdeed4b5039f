package core

import (
	"fmt"
	"os"
	"strings"

	"phylo/internal/model"
)

// Kernel backends. A backend bundles (a) a CLV memory layout and (b) the
// per-pattern kernel bodies that run over it. Two backends exist:
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
// Which body a partition runs is a fact about (backend, alphabet), decided
// once per session by bodyFor and called directly by spanCtx.run; the layout
// is fixed per Shared (one CLV buffer backs all partitions).
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

// kernelBody names the per-pattern code a partition's newview and evaluate
// chunks run; the sumtable and derivative regions have one body each under
// every backend. It is carried on the span binding as data and switched on
// once per chunk (spanCtx.run), never per pattern.
type kernelBody uint8

const (
	// bodyGeneric is the layout-aware, state-count-generic loop: it reads the
	// binding's (base, patStride, catStride) triple, so the same code serves
	// the pattern-major oracle — where it executes the seed's exact operation
	// sequence — and the fused backend's cat-major AA fallback.
	bodyGeneric kernelBody = iota
	// bodyFused4 is the 4-state straight-line code of fused4.go: category-outer
	// newview sweeps with the transition matrices hoisted out of the pattern
	// loop and fully unrolled evaluate bodies, over cat-major planes.
	bodyFused4
)

// VectorLanes is how many states one instruction of a P application computes
// on this host for a partition of the given state count under backend b: 4
// where an AVX kernel runs it, 1 where scalar loops do. At four states that is
// the fused backend's newview planes (the generic backend runs applyRows); at
// any wider alphabet it is model.ApplyCols, under either backend.
func VectorLanes(b Backend, states int) int {
	vector := model.VectorApplyCols()
	if states == 4 {
		vector = b == BackendFused && vectorPlanes
	}
	if vector {
		return 4
	}
	return 1
}

// bodyFor selects the kernel body of one partition: the fused backend runs
// the unrolled kernels on 4-state data and the generic loop on anything
// wider; the generic backend always runs the generic loop (over the
// pattern-major layout its Shared built).
func bodyFor(b Backend, states int) kernelBody {
	if b == BackendFused && states == 4 {
		return bodyFused4
	}
	return bodyGeneric
}
