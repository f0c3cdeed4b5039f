// Package cpufeat is the one place the repository reads the x86 features its
// assembly kernels need, and the one type that switches them. AVX, AVX2 and
// FMA are read once, from CPUID and XCR0, at package initialisation, and are
// false on every other GOARCH. Each 4-lane kernel of internal/core (the fused
// newview's planes, the evaluate site log, the derivative quartets) and
// internal/model (the 4- and 20-state PMatrices, Exps, ApplyCols) is one
// Kernel, declared beside its guard from those features; Kernels lists them,
// so a test that runs a suite on the scalar code turns every one of them off.
package cpufeat

import "slices"

var (
	// AVX: CPUID leaf 1 reports AVX and OSXSAVE, and XCR0 says the OS saves
	// the XMM and YMM state.
	AVX bool
	// AVX2: AVX, and CPUID leaf 7 reports AVX2 (256-bit integer operations).
	AVX2 bool
	// FMA: AVX, and CPUID leaf 1 reports the three-operand fused multiply-add.
	FMA bool
)

// A Kernel is an assembly realisation of a loop whose scalar code stays its
// reference and fallback, computing the same bits. Its guard runs it only
// where On reports true, which is where the host runs it unless a test has
// turned it off.
type Kernel struct {
	on, host bool
	name     string
}

var kernels []*Kernel

// NewKernel declares a kernel that runs where host holds, a fact about this
// CPU decided at package initialisation, and is on there.
func NewKernel(name string, host bool) *Kernel {
	k := &Kernel{on: host, host: host, name: name}
	kernels = append(kernels, k)
	return k
}

// On reports whether the kernel runs.
func (k *Kernel) On() bool { return k.on }

// Host reports whether the host runs the kernel at all.
func (k *Kernel) Host() bool { return k.host }

// Set turns the kernel on (where the host runs it) or off and returns the
// previous setting, so a test can run a suite under both realisations. Not
// safe while the kernel runs.
func (k *Kernel) Set(on bool) (was bool) {
	was, k.on = k.on, on && k.host
	return was
}

// String is the name the kernel was declared with.
func (k *Kernel) String() string { return k.name }

// Kernels lists every declared kernel, in the order the declarations ran.
func Kernels() []*Kernel { return slices.Clone(kernels) }
