package core

import (
	"testing"

	"phylo/internal/alignment"
)

// layoutFixtureParts builds a mixed DNA+AA compressed dataset whose partition
// sizes exercise padding (pattern counts not multiples of the 8-float
// alignment quantum).
func layoutFixtureParts(t *testing.T) []*alignment.CompressedPartition {
	t.Helper()
	d, _ := mixedFixture(t, 4, 42)
	return d.Parts
}

// TestLayoutCoverage is the property test of the one CLV layout: every
// (partition, pattern, cat, state) entry maps to its own offset below
// Total() — none dropped past the buffer's end, none sharing a slot with
// another — for one and for four categories.
func TestLayoutCoverage(t *testing.T) {
	parts := layoutFixtureParts(t)
	for _, cats := range []int{1, 4} {
		l := newCLVLayout(parts, cats, BackendFused)
		owner := make([]int, l.Total()) // 1 + the entry number that maps here
		entry := 0
		for ip, p := range parts {
			s := p.Type.States()
			if l.parts[ip].s != s {
				t.Fatalf("partition %d: layout states %d, want %d", ip, l.parts[ip].s, s)
			}
			for j := 0; j < p.PatternCount; j++ {
				for c := 0; c < cats; c++ {
					o := l.Index(ip, j, c)
					for a := 0; a < s; a++ {
						entry++
						if o+a < 0 || o+a >= len(owner) {
							t.Fatalf("cats=%d: (%d,%d,%d,%d) at %d, outside [0, %d)", cats, ip, j, c, a, o+a, len(owner))
						}
						if owner[o+a] != 0 {
							t.Fatalf("cats=%d: (%d,%d,%d,%d) shares offset %d with entry %d", cats, ip, j, c, a, o+a, owner[o+a]-1)
						}
						owner[o+a] = entry
					}
				}
			}
		}
		if entry == 0 || entry > l.Total() {
			t.Fatalf("cats=%d: %d entries in a buffer of %d", cats, entry, l.Total())
		}
	}
}

// TestLayoutGeometry pins the stride/alignment contract the kernels assume:
// every partition base (CLV and sumtable) and every category plane starts on
// an 8-float (64-byte) boundary, consecutive patterns of a plane are s floats
// apart, and the sumtable geometry is pattern-major.
func TestLayoutGeometry(t *testing.T) {
	parts := layoutFixtureParts(t)
	cats := 4
	l := newCLVLayout(parts, cats, BackendFused)
	for ip, p := range parts {
		s := p.Type.States()
		if l.Base(ip)%alignFloatCount != 0 {
			t.Errorf("partition %d base %d not 64-byte aligned", ip, l.Base(ip))
		}
		if l.parts[ip].sumBase%alignFloatCount != 0 {
			t.Errorf("partition %d sumtable base %d not 64-byte aligned", ip, l.parts[ip].sumBase)
		}
		if got, want := l.SumIndex(ip, 3), l.parts[ip].sumBase+3*cats*s; got != want {
			t.Errorf("partition %d SumIndex(3) = %d, want %d", ip, got, want)
		}
		if l.CatStride(ip)%alignFloatCount != 0 || l.CatStride(ip) < p.PatternCount*s {
			t.Errorf("partition %d catStride %d: want aligned and ≥ %d", ip, l.CatStride(ip), p.PatternCount*s)
		}
		if got, want := l.Index(ip, 5, 2), l.Base(ip)+2*l.CatStride(ip)+5*s; got != want {
			t.Errorf("partition %d Index(5,2) = %d, want %d", ip, got, want)
		}
	}
}
