package model

import (
	"math"
	"sync"
	"testing"

	"phylo/internal/alignment"
)

// Epochs are drawn from one process-wide source (Epoch): equal epochs mean
// one model and its Clones, none changed since, which is what lets core's
// P-block memo be shared between partitions.

// TestEpochsAreProcessUnique builds models on several goroutines at once,
// through every constructor, and requires no two of them to report one epoch.
func TestEpochsAreProcessUnique(t *testing.T) {
	builders := []func() (*Model, error){
		func() (*Model, error) { return JC69(4, 1) },
		func() (*Model, error) { return SYN20(4, 1) },
		func() (*Model, error) { return Poisson20(2, 0.5) },
		func() (*Model, error) { return GTR([]float64{0.1, 0.2, 0.3, 0.4}, nil, 4, 1) },
	}
	const goroutines, each = 4, 25
	got := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				m, err := builders[(g+i)%len(builders)]()
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], m.Epoch())
			}
		}()
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, es := range got {
		for _, e := range es {
			if seen[e] {
				t.Fatalf("two independently built models report epoch %d", e)
			}
			seen[e] = true
		}
	}
}

// TestEpochMoves pins which calls move an epoch and where to: Clone carries
// it; SetAlpha and a successful UpdateEigen move to an epoch above every one
// drawn before, so no model held it; a refused SetAlpha, a failed UpdateEigen
// and SetExRate keep it.
func TestEpochMoves(t *testing.T) {
	m, err := GTR([]float64{0.1, 0.2, 0.3, 0.4}, nil, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if c.Epoch() != m.Epoch() {
		t.Fatalf("Clone reports epoch %d, its original %d", c.Epoch(), m.Epoch())
	}
	moved := func(label string, call func() error) {
		t.Helper()
		marker, err := JC69(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := call(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if m.Epoch() <= marker.Epoch() || m.Epoch() == c.Epoch() {
			t.Errorf("%s: epoch %d, want above %d (drawn just before) and not the clone's %d", label, m.Epoch(), marker.Epoch(), c.Epoch())
		}
	}
	kept := func(label string, call func() error) {
		t.Helper()
		e := m.Epoch()
		if err := call(); err == nil {
			t.Fatalf("%s: want an error", label)
		}
		if m.Epoch() != e {
			t.Errorf("%s: epoch %d, want %d kept", label, m.Epoch(), e)
		}
	}

	moved("SetAlpha", func() error { return m.SetAlpha(0.5) })
	kept("refused SetAlpha", func() error { return m.SetAlpha(-1) })
	e := m.Epoch()
	if err := m.SetExRate(0, 2.5); err != nil || m.Epoch() != e {
		t.Errorf("SetExRate: error %v, epoch %d, want %d kept", err, m.Epoch(), e)
	}
	moved("UpdateEigen", m.UpdateEigen)
	m.ExRates[0] = math.NaN() // Jacobi does not converge on a NaN rate matrix
	kept("failed UpdateEigen", m.UpdateEigen)
}

// TestDefaultsForSharesEpochs: DefaultsFor gives every protein partition one
// epoch and DNA partitions one epoch per distinct frequency vector, each a
// Clone of the first model in its state, bit for bit.
func TestDefaultsForSharesEpochs(t *testing.T) {
	// Three taxa; g2 repeats g1's columns (the same counts, so the same
	// frequencies), g3 has other counts.
	g1, g3, aa := []string{"ACGT", "AACG", "ACCT"}, []string{"GGGT", "GTTA", "GGAT"}, []string{"ARND", "CQEG", "HILK"}
	rows := make([][]byte, 3)
	for i := range rows {
		rows[i] = []byte(g1[i] + aa[i] + g1[i] + g3[i] + aa[i] + "MFPS")
	}
	a, err := alignment.New([]string{"t1", "t2", "t3"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	cols := func(lo int) []int { return []int{lo, lo + 1, lo + 2, lo + 3} }
	parts := []alignment.Partition{
		{Name: "g1", Type: alignment.DNA, Sites: cols(0)},
		{Name: "p1", Type: alignment.AA, Sites: cols(4)},
		{Name: "g2", Type: alignment.DNA, Sites: cols(8)},
		{Name: "g3", Type: alignment.DNA, Sites: cols(12)},
		{Name: "p2", Type: alignment.AA, Sites: cols(16)},
		{Name: "p3", Type: alignment.AA, Sites: cols(20)},
	}
	d, err := alignment.Compress(a, parts, alignment.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := DefaultsFor(d.Parts, 4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	first := []int{0, 1, 0, 3, 1, 1} // the first partition in each one's state
	for i, m := range ms {
		f := ms[first[i]]
		if m.Epoch() != f.Epoch() {
			t.Errorf("partition %d: epoch %d, want partition %d's %d", i, m.Epoch(), first[i], f.Epoch())
		}
		for j := range ms {
			if first[j] != first[i] && ms[j].Epoch() == m.Epoch() {
				t.Errorf("partitions %d and %d are in different states but report one epoch", i, j)
			}
		}
		if i != first[i] && m == f {
			t.Errorf("partition %d is partition %d's model object, want a Clone", i, first[i])
		}
		if err := sameModel(m, f); err != nil {
			t.Errorf("partition %d against partition %d: %v", i, first[i], err)
		}
	}
}
