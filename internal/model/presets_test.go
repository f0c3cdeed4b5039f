package model

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"phylo/internal/alignment"
)

// presetCase is one constant preset and what New builds it from.
type presetCase struct {
	name          string
	get           func(numCats int, alpha float64) (*Model, error)
	preset        func() (*Model, error)
	typ           alignment.DataType
	freqs, exRate []float64
}

func presetCases() []presetCase {
	return []presetCase{
		{"SYN20", SYN20, syn20Preset, alignment.AA, syn20Freqs(), syn20ExRates()},
		{"Poisson20", Poisson20, poisson20Preset, alignment.AA, nil, nil},
		{"JC69", JC69, jc69Preset, alignment.DNA, nil, nil},
	}
}

// sameModel reports the first field where got differs from want in bits.
func sameModel(got, want *Model) error {
	if got.Type != want.Type || got.States != want.States || got.NumCats != want.NumCats ||
		math.Float64bits(got.Alpha) != math.Float64bits(want.Alpha) || got.Dirty() != want.Dirty() {
		return fmt.Errorf("header: got %v/%d/%d/%v, want %v/%d/%d/%v", got.Type, got.States, got.NumCats, got.Alpha, want.Type, want.States, want.NumCats, want.Alpha)
	}
	for _, f := range []struct {
		name      string
		got, want []float64
	}{
		{"EigenVals", got.EigenVals, want.EigenVals},
		{"EigenVecs", got.EigenVecs, want.EigenVecs},
		{"EigenVecsT", got.EigenVecsT, want.EigenVecsT},
		{"InvVecs", got.InvVecs, want.InvVecs},
		{"InvVecsT", got.InvVecsT, want.InvVecsT},
		{"CatRates", got.CatRates, want.CatRates},
		{"Freqs", got.Freqs, want.Freqs},
		{"ExRates", got.ExRates, want.ExRates},
	} {
		if !slices.EqualFunc(f.got, f.want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			return fmt.Errorf("%s: got %v, want %v", f.name, f.got, f.want)
		}
	}
	return nil
}

// TestPresetsMatchNew: a constant preset at any (numCats, alpha) is what New
// builds from its frequencies and exchangeabilities, bit for bit, and its
// errors are New's.
func TestPresetsMatchNew(t *testing.T) {
	for _, pc := range presetCases() {
		for _, c := range []struct {
			cats  int
			alpha float64
		}{{1, 1}, {4, 1}, {4, 0.5}, {2, 5}, {8, 0.3}, {4, MinAlpha}, {3, MaxAlpha}} {
			got, err := pc.get(c.cats, c.alpha)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(pc.typ, pc.freqs, pc.exRate, c.alpha, c.cats)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameModel(got, want); err != nil {
				t.Errorf("%s(%d, %v): %v", pc.name, c.cats, c.alpha, err)
			}
		}
		for _, c := range []struct {
			cats  int
			alpha float64
		}{{0, 1}, {-2, 1}, {4, 0.001}, {4, math.NaN()}, {4, 1000}, {0, -1}} {
			_, got := pc.get(c.cats, c.alpha)
			_, want := New(pc.typ, pc.freqs, pc.exRate, c.alpha, c.cats)
			if got == nil || want == nil || got.Error() != want.Error() {
				t.Errorf("%s(%d, %v): error %v, New's %v", pc.name, c.cats, c.alpha, got, want)
			}
		}
	}
}

// TestPresetsShareNothing: a returned model shares no array with the preset
// it was copied from, and changing one (exchangeabilities, decomposition,
// Gamma shape, a frequency written in place) leaves the next call's result
// as New builds it.
func TestPresetsShareNothing(t *testing.T) {
	for _, pc := range presetCases() {
		tmpl, err := pc.preset()
		if err != nil {
			t.Fatal(err)
		}
		m, err := pc.get(4, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range modelArrays(m) {
			for _, b := range modelArrays(tmpl) {
				if overlap(a, b) {
					t.Fatalf("%s: a returned model shares an array with the preset", pc.name)
				}
			}
		}
		if err := m.SetExRate(0, 3.5); err != nil {
			t.Fatal(err)
		}
		if err := m.UpdateEigen(); err != nil {
			t.Fatal(err)
		}
		if err := m.SetAlpha(0.3); err != nil {
			t.Fatal(err)
		}
		m.Freqs[1] = 0.5
		next, err := pc.get(4, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(pc.typ, pc.freqs, pc.exRate, 0.7, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameModel(next, want); err != nil {
			t.Errorf("%s after changing an earlier copy: %v", pc.name, err)
		}
	}
}

func modelArrays(m *Model) [][]float64 {
	return [][]float64{m.Freqs, m.ExRates, m.CatRates, m.EigenVals, m.EigenVecs, m.EigenVecsT, m.InvVecs, m.InvVecsT}
}

// overlap reports whether two slices' capacities share memory.
func overlap(a, b []float64) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	const w = unsafe.Sizeof(float64(0))
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b))*w && b0 < a0+uintptr(cap(a))*w
}

// TestPresetsConcurrentFirstUse: the first calls of a preset from several
// goroutines build one decomposition and hand each caller its own copy (the
// CI race step runs this package under -race). A fresh preset makes the
// first use happen here whatever ran before; the package's own presets are
// called too, which is their first use when this test runs alone.
func TestPresetsConcurrentFirstUse(t *testing.T) {
	builds := 0
	fresh := sync.OnceValues(func() (*Model, error) {
		builds++
		return New(alignment.AA, syn20Freqs(), syn20ExRates(), DefaultAlpha, 1)
	})
	want, err := New(alignment.AA, syn20Freqs(), syn20ExRates(), 0.9, 4)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	got := make([]*Model, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got[g], errs[g] = instance(fresh, 4, 0.9, nil); errs[g] != nil {
				return
			}
			got[g].CatRates[0] = float64(g) // each caller writes its own copy
			for _, pc := range presetCases() {
				if _, errs[g] = pc.get(4, 0.9); errs[g] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Errorf("the preset was decomposed %d times, want once", builds)
	}
	for g, m := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if m.CatRates[0] != float64(g) {
			t.Errorf("goroutine %d: its copy's first rate is %v, want %d (copies shared)", g, m.CatRates[0], g)
		}
		m.CatRates[0] = want.CatRates[0]
		if err := sameModel(m, want); err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestDefaultsForMatchesNew: the per-dataset builder, which computes the
// Gamma rates once, gives every partition what New builds for it — GTR on
// the partition's empirical frequencies for DNA, SYN20 for protein — bit for
// bit, and no two partitions share their rates.
func TestDefaultsForMatchesNew(t *testing.T) {
	a, err := alignment.New(
		[]string{"t1", "t2", "t3", "t4"},
		[][]byte{[]byte("ACGTAC-AMKLV"), []byte("ACGAACRCMKLI"), []byte("ACCTNCGAMRLV"), []byte("TCGTACGA-KXV")},
	)
	if err != nil {
		t.Fatal(err)
	}
	parts := []alignment.Partition{
		{Name: "g1", Type: alignment.DNA, Sites: []int{0, 1, 2, 3}},
		{Name: "p1", Type: alignment.AA, Sites: []int{8, 9, 10, 11}},
		{Name: "g2", Type: alignment.DNA, Sites: []int{4, 5, 6, 7}},
	}
	d, err := alignment.Compress(a, parts, alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(p *alignment.CompressedPartition, cats int, alpha float64) (*Model, error) {
		if p.Type == alignment.DNA {
			return New(alignment.DNA, EmpiricalFreqs(p), nil, alpha, cats)
		}
		return New(alignment.AA, syn20Freqs(), syn20ExRates(), alpha, cats)
	}
	for _, c := range []struct {
		cats  int
		alpha float64
	}{{4, 1}, {1, 1}, {6, 0.4}} {
		ms, err := DefaultsFor(d.Parts, c.cats, c.alpha)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range d.Parts {
			want, err := fresh(p, c.cats, c.alpha)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameModel(ms[i], want); err != nil {
				t.Errorf("(%d, %v) partition %s: %v", c.cats, c.alpha, p.Name, err)
			}
		}
		ms[0].CatRates[0] = 42
		if ms[1].CatRates[0] == 42 || ms[2].CatRates[0] == 42 {
			t.Errorf("(%d, %v): partitions share their category rates", c.cats, c.alpha)
		}
	}
	for _, bad := range []struct {
		cats  int
		alpha float64
	}{{0, 1}, {4, 0}} {
		_, got := DefaultsFor(d.Parts, bad.cats, bad.alpha)
		_, want := fresh(d.Parts[0], bad.cats, bad.alpha)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("DefaultsFor(%d, %v): error %v, New's %v", bad.cats, bad.alpha, got, want)
		}
	}
}
