package core

import "unsafe"

// Cache-line-aligned float64 allocation. The CLV planes, the sumtable, and
// the per-worker tip-table/P-matrix scratch are the kernel's only large hot
// buffers; starting each on a 64-byte boundary keeps the layout descriptor's
// alignment promises honest (a category-plane stride of 8k floats is only
// aligned if float 0 is) and keeps vector-width loads from straddling lines.

// cacheLine is the alignment target in bytes; alignFloatCount is the same in
// float64 units. Partition bases and category-plane strides are rounded up
// to multiples of it (see CLVLayout).
const (
	cacheLine       = 64
	alignFloatCount = cacheLine / 8
)

// alignFloats rounds a float64 count up to a whole number of cache lines.
func alignFloats(n int) int {
	return (n + alignFloatCount - 1) &^ (alignFloatCount - 1)
}

// alignedFloats allocates a zeroed float64 slice of length n whose first
// element sits on a cache-line boundary. Go's allocator already aligns large
// slices; this makes it a guarantee rather than a likelihood by
// over-allocating one line and re-slicing. Capacity is clipped to n so
// appends cannot silently outgrow the aligned region.
func alignedFloats(n int) []float64 {
	if n == 0 {
		return nil
	}
	buf := make([]float64, n+alignFloatCount-1)
	off := 0
	if r := uintptr(unsafe.Pointer(&buf[0])) % cacheLine; r != 0 {
		off = int((cacheLine - r) / 8)
	}
	return buf[off : off+n : off+n]
}

// isAligned reports whether a non-empty slice starts on a cache-line
// boundary (used by the allocation-pinning tests).
func isAligned(v []float64) bool {
	return len(v) == 0 || uintptr(unsafe.Pointer(&v[0]))%cacheLine == 0
}
