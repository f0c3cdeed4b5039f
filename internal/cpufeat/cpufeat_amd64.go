package cpufeat

func init() { AVX, AVX2, FMA = detect() }

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

func detect() (avx, avx2, fma bool) {
	const (
		fmaBit  = 1 << 12 // leaf 1 ECX
		osxsave = 1 << 27 // leaf 1 ECX
		avxBit  = 1 << 28 // leaf 1 ECX
		avx2Bit = 1 << 5  // leaf 7 EBX
		ymmXCR0 = 6       // XMM and YMM state
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avxBit) != osxsave|avxBit || xgetbv()&ymmXCR0 != ymmXCR0 {
		return false, false, false
	}
	if maxLeaf >= 7 {
		_, ebx, _, _ := cpuid(7, 0)
		avx2 = ebx&avx2Bit != 0
	}
	return true, avx2, ecx&fmaBit != 0
}
