package core

import (
	"fmt"
	"os"
	"strings"

	"phylo/internal/model"
)

// Kernel backends. Every backend stores CLVs in the one layout of layout.go;
// a backend decides which per-pattern body a 4-state partition runs
// (bodyFor), nothing else. Two backends exist:
//
//   - BackendGeneric — the bounds-checked, state-count-generic loops on every
//     partition. It is the bit-exactness oracle: the fused bodies must
//     reproduce its total lnL, per-site lnLs, branch derivatives and scaling
//     exponents bit for bit (the same contract the Specialize=false ablation
//     keeps for the tip tables).
//   - BackendFused — 4-state (DNA) partitions run fully unrolled
//     straight-line multiply-add kernels that hoist the fixed category's
//     transition matrix into registers and sweep contiguous pattern lanes of
//     a category plane, while wider alphabets (20-state AA) run the generic
//     loop.
//
// Which body a partition runs is a fact about (backend, alphabet), decided
// once per Shared by bodyFor into the partition's record (layout.go) and
// called directly by spanCtx.run.
// Bit-identity across backends holds because the fused bodies reorder no
// floating-point accumulation: every madd sequence — the b-ascending P
// applications, the (cat, state)-ascending evaluate reduction, the
// eigenbasis projections — runs in the generic bodies' order, so only the
// order in which patterns and categories are visited differs.

// Backend selects the kernel backend of a Shared and its sessions.
type Backend int

const (
	// BackendAuto resolves to the PLK_BACKEND environment variable when set,
	// and to BackendFused otherwise.
	BackendAuto Backend = iota
	// BackendGeneric runs the generic bodies everywhere, kept as the oracle.
	BackendGeneric
	// BackendFused runs the unrolled 4-state kernels on DNA partitions.
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

// kernelBody names the per-pattern code a partition's newview and evaluate
// shares run; the sumtable and derivative regions have one body each
// under every backend. It is carried on the span binding as data and switched
// on once per run (spanCtx.run), never per pattern.
type kernelBody uint8

const (
	// bodyGeneric is the state-count-generic loop: one pattern across all
	// categories at a time, stepping the binding's catStride between them. It
	// is the oracle's body and the fused backend's AA fallback.
	bodyGeneric kernelBody = iota
	// bodyFused4 is the 4-state straight-line code of fused4.go: category-outer
	// newview sweeps with the transition matrices hoisted out of the pattern
	// loop and fully unrolled evaluate bodies, over the category planes.
	bodyFused4
)

// VectorLanes is how many states one instruction of a P application computes
// on this host for a partition of the given state count under backend b: 4
// where an AVX kernel runs it, 1 where scalar loops do. At four states that is
// the fused backend's newview planes (the generic backend runs applyRows); at
// any wider alphabet it is model.ApplyCols, under either backend.
func VectorLanes(b Backend, states int) int {
	vector := model.ApplyColsKernel.On()
	if states == 4 {
		vector = b == BackendFused && planesKernel.On()
	}
	if vector {
		return 4
	}
	return 1
}

// bodyFor selects the kernel body of one partition: the fused backend runs
// the unrolled kernels on 4-state data and the generic loop on anything
// wider; the generic backend always runs the generic loop.
func bodyFor(b Backend, states int) kernelBody {
	if b == BackendFused && states == 4 {
		return bodyFused4
	}
	return bodyGeneric
}
