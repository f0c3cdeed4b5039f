package alignment

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// hostileHeaders are PHYLIP bodies whose header claims far more than the
// body holds: sized from the header alone, the first panics in makeslice and
// the second reserves 3 GB.
var hostileHeaders = []string{
	"4000000000000000000 1\na A\n",
	"2 3000000000\na ACGT\nb ACGT\n",
	"3 3000000000\na ACGT\nb ACGT\nc ACGT\n",
}

// exampleAlignment returns the PHYLIP text embedded in an example program
// (its first raw string literal), so the parsers are seeded with the inputs
// the documentation shows.
func exampleAlignment(tb testing.TB, name string) string {
	tb.Helper()
	src, err := os.ReadFile("../../examples/" + name + "/main.go")
	if err != nil {
		tb.Fatal(err)
	}
	parts := strings.SplitN(string(src), "`", 3)
	if len(parts) != 3 {
		tb.Fatalf("examples/%s/main.go has no raw string literal", name)
	}
	return parts[1]
}

// TestReadPhylipHostileHeaders: a header is a claim, not a size. Each body is
// rejected with the ordinary shape errors, without a panic and without an
// allocation proportional to a header number; and the common
// one-line-per-taxon file still costs one allocation per sequence.
func TestReadPhylipHostileHeaders(t *testing.T) {
	for _, body := range hostileHeaders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadPhylip(strings.NewReader(body))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "header says") {
			t.Errorf("%q: err = %v, want a taxa/sites-vs-header error", body, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%q: parsing allocated %d bytes", body, got)
		}
	}
	a, err := ReadPhylip(strings.NewReader(exampleAlignment(t, "quickstart")))
	if err != nil {
		t.Fatal(err)
	}
	for i, seq := range a.Seqs {
		if cap(seq) != a.NumSites() {
			t.Errorf("taxon %q: capacity %d for %d sites; a one-line record must be one exact allocation",
				a.Names[i], cap(seq), a.NumSites())
		}
	}
}

// FuzzReadPhylip: untrusted request bytes (POST /v1/datasets) yield an error
// or an alignment of the shape New guarantees that Compress can walk; never
// a panic.
func FuzzReadPhylip(f *testing.F) {
	for _, name := range []string{"quickstart", "gappy"} {
		f.Add(exampleAlignment(f, name))
	}
	for _, body := range hostileHeaders {
		f.Add(body)
	}
	f.Add("3 8\nt1 ACGT\nACGT\nt2 CCCC CCCC\nt3\nGGGGGGGG\n")
	f.Fuzz(func(t *testing.T, body string) {
		a, err := ReadPhylip(strings.NewReader(body))
		if err != nil {
			return
		}
		if a.NumTaxa() < 3 || a.NumSites() < 1 {
			t.Fatalf("accepted a %d x %d alignment", a.NumTaxa(), a.NumSites())
		}
		// Characters are only judged against a data type here; a rejection is
		// fine, an accepted alignment must account for every column.
		d, err := Compress(a, SinglePartition(a, DNA, "all"), CompressOptions{})
		if err == nil && d.TotalSites != a.NumSites() {
			t.Fatalf("compressed %d of %d sites", d.TotalSites, a.NumSites())
		}
	})
}

// FuzzParsePartitionFile: an untrusted partition scheme yields an error or
// partitions Compress accepts on the alignment they were parsed for.
func FuzzParsePartitionFile(f *testing.F) {
	a, err := ReadPhylip(strings.NewReader(exampleAlignment(f, "gappy")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add("DNA, gene0 = 1-20\nDNA, gene1 = 21-40\n") // examples/gappy
	f.Add("DNA, gene0 = 1-10\nWAG, gene1 = 11-20, 31-40\nDNA, gene2 = 21-30\\3\n")
	f.Add("DNA, g = 1-4000000000000000000\n")
	f.Add("DNA, g = 1-40\\4000000000000000000\n")
	f.Add("# comment\nGTR,=40\n")
	f.Fuzz(func(t *testing.T, scheme string) {
		parts, err := ParsePartitionFile(strings.NewReader(scheme), a.NumSites())
		if err != nil {
			return
		}
		if _, err := Compress(a, parts, CompressOptions{}); err != nil {
			t.Fatalf("Compress rejects the parsed scheme %q: %v", scheme, err)
		}
	})
}
