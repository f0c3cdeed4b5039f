package cpufeat

import (
	"os"
	"runtime"
	"slices"
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

// TestKernelSet: a kernel is on only where its host runs it, whatever Set
// asks, and Set returns the setting it replaces.
func TestKernelSet(t *testing.T) {
	absent, present := NewKernel("absent", false), NewKernel("present", true)
	if absent.On() || !present.On() {
		t.Fatalf("declared: %v on = %v, %v on = %v", absent, absent.On(), present, present.On())
	}
	for _, c := range []struct {
		k            *Kernel
		set, was, on bool
	}{
		{absent, true, false, false},
		{absent, false, false, false},
		{present, false, true, false},
		{present, false, false, false},
		{present, true, false, true},
		{present, true, true, true},
	} {
		if was := c.k.Set(c.set); was != c.was || c.k.On() != c.on {
			t.Fatalf("%v.Set(%v) = %v, then on = %v; want %v, %v", c.k, c.set, was, c.k.On(), c.was, c.on)
		}
	}
}

// TestKernelsListsEachDeclaration: Kernels lists every declaration once, in
// declaration order, and a caller cannot edit the list.
func TestKernelsListsEachDeclaration(t *testing.T) {
	before := Kernels()
	a, b := NewKernel("a", true), NewKernel("a", true)
	got := Kernels()
	if want := append(before, a, b); !slices.Equal(got, want) {
		t.Fatalf("Kernels() = %v, want %v", got, want)
	}
	seen := map[*Kernel]bool{}
	for _, k := range got {
		if seen[k] {
			t.Fatalf("%v listed twice", k)
		}
		seen[k] = true
	}
	got[len(got)-1] = nil
	if Kernels()[len(got)-1] != b {
		t.Fatal("editing the returned list changed the registry")
	}
}
