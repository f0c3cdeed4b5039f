package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestFeaturesImplyAVX: AVX2 and FMA are reported only with AVX, whose
// register state they need.
func TestFeaturesImplyAVX(t *testing.T) {
	if (AVX2 || FMA) && !AVX {
		t.Fatalf("AVX=%v AVX2=%v FMA=%v", AVX, AVX2, FMA)
	}
	if runtime.GOARCH != "amd64" && (AVX || AVX2 || FMA) {
		t.Fatalf("x86 features reported on %s", runtime.GOARCH)
	}
}

// TestFeaturesMatchCPUInfo: on Linux the decoded CPUID bits agree with the
// flags the kernel reports (which it clears when it does not save the YMM
// state, as the XCR0 check does here).
func TestFeaturesMatchCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("reads Linux's x86 /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("no flags line")
	}
	for name, got := range map[string]bool{"avx": AVX, "avx2": AVX2, "fma": FMA} {
		if got != flags[name] {
			t.Errorf("%s: CPUID says %v, /proc/cpuinfo %v", name, got, flags[name])
		}
	}
}
