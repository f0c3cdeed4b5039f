// Package cpufeat is the one place the repository reads the x86 features its
// assembly kernels need: AVX for the fused newview's plane kernels
// (internal/core), AVX2 and FMA for the 4-state transition-matrix kernel
// (internal/model). Each is read once, from CPUID and XCR0, at package
// initialisation, and is false on every other GOARCH.
package cpufeat

var (
	// AVX: CPUID leaf 1 reports AVX and OSXSAVE, and XCR0 says the OS saves
	// the XMM and YMM state.
	AVX bool
	// AVX2: AVX, and CPUID leaf 7 reports AVX2 (256-bit integer operations).
	AVX2 bool
	// FMA: AVX, and CPUID leaf 1 reports the three-operand fused multiply-add.
	FMA bool
)
