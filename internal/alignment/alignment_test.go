package alignment

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mkAlign(t *testing.T, names []string, rows []string) *Alignment {
	t.Helper()
	seqs := make([][]byte, len(rows))
	for i, r := range rows {
		seqs[i] = []byte(r)
	}
	a, err := New(names, seqs)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]string{"a", "b"}, [][]byte{[]byte("AC"), []byte("AC")}); err == nil {
		t.Error("expected error for <3 taxa")
	}
	if _, err := New([]string{"a", "b", "a"}, [][]byte{[]byte("AC"), []byte("AC"), []byte("AC")}); err == nil {
		t.Error("expected error for duplicate names")
	}
	if _, err := New([]string{"a", "b", "c"}, [][]byte{[]byte("AC"), []byte("ACG"), []byte("AC")}); err == nil {
		t.Error("expected error for ragged rows")
	}
	if _, err := New([]string{"a", "b", "c"}, [][]byte{{}, {}, {}}); err == nil {
		t.Error("expected error for empty sequences")
	}
	if _, err := New([]string{"a", "", "c"}, [][]byte{[]byte("A"), []byte("A"), []byte("A")}); err == nil {
		t.Error("expected error for empty name")
	}
	a := mkAlign(t, []string{"a", "b", "c"}, []string{"ACGT", "ACGT", "ACGT"})
	if a.NumTaxa() != 3 || a.NumSites() != 4 {
		t.Errorf("shape = %d x %d, want 3 x 4", a.NumTaxa(), a.NumSites())
	}
	if a.TaxonIndex("b") != 1 || a.TaxonIndex("zz") != -1 {
		t.Error("TaxonIndex wrong")
	}
}

func TestEncodeDNA(t *testing.T) {
	cases := map[byte]byte{
		'A': 1, 'C': 2, 'G': 4, 'T': 8, 'U': 8,
		'a': 1, 't': 8,
		'R': 5, 'Y': 10, 'N': 15, '-': 15, '?': 15,
		'W': 9, 'S': 6, 'K': 12, 'M': 3, 'B': 14, 'D': 13, 'H': 11, 'V': 7,
	}
	for c, want := range cases {
		got, err := EncodeChar(DNA, c)
		if err != nil || got != want {
			t.Errorf("EncodeChar(DNA, %q) = %d, %v; want %d", string(rune(c)), got, err, want)
		}
	}
	if _, err := EncodeChar(DNA, 'J'); err == nil {
		t.Error("expected error for invalid DNA char")
	}
}

func TestEncodeAA(t *testing.T) {
	for i, c := range "ARNDCQEGHILKMFPSTWYV" {
		got, err := EncodeChar(AA, byte(c))
		if err != nil || got != byte(i) {
			t.Errorf("EncodeChar(AA, %q) = %d, %v; want %d", string(c), got, err, i)
		}
	}
	for _, c := range "X-?*" {
		got, err := EncodeChar(AA, byte(c))
		if err != nil || got != AAGap {
			t.Errorf("EncodeChar(AA, %q) = %d, %v; want gap %d", string(c), got, err, AAGap)
		}
	}
	b, _ := EncodeChar(AA, 'B')
	if AATipVectors[b][2] != 1 || AATipVectors[b][3] != 1 || AATipVectors[b][0] != 0 {
		t.Error("AA ambiguity code B should allow exactly N and D")
	}
	if _, err := EncodeChar(AA, 'J'); err == nil {
		t.Error("expected error for invalid AA char")
	}
}

func TestTipVectors(t *testing.T) {
	// DNA code 5 = A|G.
	v := TipVector(DNA, 5)
	want := []float64{1, 0, 1, 0}
	for i := range want {
		if v[i] != want[i] {
			t.Errorf("DNA tip vector for R: %v", v)
			break
		}
	}
	// Gap codes allow everything.
	for _, s := range TipVector(DNA, GapCode(DNA)) {
		if s != 1 {
			t.Error("DNA gap tip vector must be all ones")
		}
	}
	for _, s := range TipVector(AA, GapCode(AA)) {
		if s != 1 {
			t.Error("AA gap tip vector must be all ones")
		}
	}
	// TipStates is the ascending list of the ones, for every code.
	for _, dt := range []DataType{DNA, AA} {
		for code := 0; code < NumCodes(dt); code++ {
			var want []uint8
			for s, v := range TipVector(dt, byte(code)) {
				if v != 0 && v != 1 {
					t.Fatalf("%v code %d: tip vector entry %v is not 0/1", dt, code, v)
				}
				if v == 1 {
					want = append(want, uint8(s))
				}
			}
			if got := TipStates(dt, byte(code)); string(got) != string(want) {
				t.Errorf("%v code %d: TipStates %v, tip vector ones at %v", dt, code, got, want)
			}
		}
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	for s := 0; s < 4; s++ {
		c := StateChar(DNA, s)
		code, err := EncodeChar(DNA, c)
		if err != nil || code != StateToCode(DNA, s) {
			t.Errorf("DNA state %d roundtrip failed", s)
		}
		if DecodeChar(DNA, code) != c {
			t.Errorf("DecodeChar(DNA, %d) = %q, want %q", code, DecodeChar(DNA, code), c)
		}
	}
	for s := 0; s < 20; s++ {
		c := StateChar(AA, s)
		code, err := EncodeChar(AA, c)
		if err != nil || code != StateToCode(AA, s) {
			t.Errorf("AA state %d roundtrip failed", s)
		}
		if DecodeChar(AA, code) != c {
			t.Errorf("DecodeChar(AA, %d) = %q, want %q", code, DecodeChar(AA, code), c)
		}
	}
}

func TestCompressBasics(t *testing.T) {
	a := mkAlign(t, []string{"t1", "t2", "t3"}, []string{
		"AACCA",
		"AACCT",
		"AAGGA",
	})
	d, err := Compress(a, SinglePartition(a, DNA, ""), CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Columns: AAA, AAA, CCG, CCG, ATA -> 3 distinct patterns.
	if d.TotalPatterns != 3 {
		t.Fatalf("TotalPatterns = %d, want 3", d.TotalPatterns)
	}
	p := d.Parts[0]
	if p.SiteCount != 5 {
		t.Errorf("SiteCount = %d, want 5", p.SiteCount)
	}
	sum := 0.0
	for _, w := range p.Weights {
		sum += w
	}
	if sum != 5 {
		t.Errorf("weights sum to %v, want 5", sum)
	}
	if p.Weights[0] != 2 || p.Weights[1] != 2 || p.Weights[2] != 1 {
		t.Errorf("weights = %v, want [2 2 1]", p.Weights)
	}
	// KeepDuplicates keeps m patterns.
	d2, err := Compress(a, SinglePartition(a, DNA, ""), CompressOptions{KeepDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	if d2.TotalPatterns != 5 {
		t.Errorf("KeepDuplicates: TotalPatterns = %d, want 5", d2.TotalPatterns)
	}
}

func TestCompressPartitionsSeparateNamespaces(t *testing.T) {
	// Identical columns in different partitions must not merge.
	a := mkAlign(t, []string{"t1", "t2", "t3"}, []string{
		"AA",
		"CC",
		"GG",
	})
	parts := []Partition{
		{Name: "g0", Type: DNA, Sites: []int{0}},
		{Name: "g1", Type: DNA, Sites: []int{1}},
	}
	d, err := Compress(a, parts, CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalPatterns != 2 || len(d.Parts) != 2 {
		t.Fatalf("got %d patterns in %d parts, want 2 in 2", d.TotalPatterns, len(d.Parts))
	}
	if d.Parts[0].Offset != 0 || d.Parts[1].Offset != 1 {
		t.Errorf("offsets = %d,%d want 0,1", d.Parts[0].Offset, d.Parts[1].Offset)
	}
	if d.PartitionOf(0) != d.Parts[0] || d.PartitionOf(1) != d.Parts[1] || d.PartitionOf(2) != nil {
		t.Error("PartitionOf wrong")
	}
}

func TestCompressGappyPresence(t *testing.T) {
	a := mkAlign(t, []string{"t1", "t2", "t3"}, []string{
		"AC--",
		"AC-A",
		"ACGA",
	})
	parts := []Partition{
		{Name: "g0", Type: DNA, Sites: []int{0, 1}},
		{Name: "g1", Type: DNA, Sites: []int{2, 3}},
	}
	d, err := Compress(a, parts, CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Parts[0].Present[0] || !d.Parts[0].Present[1] || !d.Parts[0].Present[2] {
		t.Error("all taxa present in partition 0")
	}
	if d.Parts[1].Present[0] {
		t.Error("taxon t1 is all-gap in partition 1, Present must be false")
	}
	if !d.Parts[1].Present[1] || !d.Parts[1].Present[2] {
		t.Error("t2/t3 present in partition 1")
	}
	// Codes lists each taxon's distinct tip codes per partition, ascending:
	// A=1 and C=2 everywhere in g0; in g1 only the gap (15) for t1, A and the
	// gap for t2, A and G=4 for t3.
	want := [][][]byte{
		{{1, 2}, {1, 2}, {1, 2}},
		{{DNAGap}, {1, DNAGap}, {1, 4}},
	}
	for ip, p := range d.Parts {
		for tx := range p.Tips {
			if string(p.Codes[tx]) != string(want[ip][tx]) {
				t.Errorf("partition %d taxon %d: Codes = %v, want %v", ip, tx, p.Codes[tx], want[ip][tx])
			}
		}
	}
}

func TestCompressErrors(t *testing.T) {
	a := mkAlign(t, []string{"t1", "t2", "t3"}, []string{"AC", "AC", "AC"})
	if _, err := Compress(a, nil, CompressOptions{}); err == nil {
		t.Error("expected error for no partitions")
	}
	if _, err := Compress(a, []Partition{{Name: "x", Type: DNA}}, CompressOptions{}); err == nil {
		t.Error("expected error for empty partition")
	}
	if _, err := Compress(a, []Partition{{Name: "x", Type: DNA, Sites: []int{9}}}, CompressOptions{}); err == nil {
		t.Error("expected error for out-of-range site")
	}
	bad := mkAlign(t, []string{"t1", "t2", "t3"}, []string{"AJ", "AC", "AC"})
	if _, err := Compress(bad, SinglePartition(bad, DNA, ""), CompressOptions{}); err == nil {
		t.Error("expected error for invalid character")
	}
}

func TestUniformPartitions(t *testing.T) {
	a := mkAlign(t, []string{"t1", "t2", "t3"}, []string{
		strings.Repeat("A", 2500), strings.Repeat("C", 2500), strings.Repeat("G", 2500),
	})
	parts, err := UniformPartitions(a, DNA, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// 2500/1000 -> 1000, 1000, 500; 500 >= 1000/2 so it stays separate.
	if len(parts) != 3 || len(parts[2].Sites) != 500 {
		t.Fatalf("got %d parts, last %d sites", len(parts), len(parts[len(parts)-1].Sites))
	}
	a2 := mkAlign(t, []string{"t1", "t2", "t3"}, []string{
		strings.Repeat("A", 2300), strings.Repeat("C", 2300), strings.Repeat("G", 2300),
	})
	parts, err = UniformPartitions(a2, DNA, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// 1000, 1000, 300 -> stub 300 < 500 merges into predecessor.
	if len(parts) != 2 || len(parts[1].Sites) != 1300 {
		t.Fatalf("stub merge failed: %d parts, last %d sites", len(parts), len(parts[len(parts)-1].Sites))
	}
	if _, err := UniformPartitions(a, DNA, 0); err == nil {
		t.Error("expected error for partLen 0")
	}
	if _, err := UniformPartitions(a, DNA, 99999); err == nil {
		t.Error("expected error for partLen > sites")
	}
}

func TestParsePartitionFile(t *testing.T) {
	src := `
# comment
DNA, gene0 = 1-10
WAG, gene1 = 11-20, 25-30
DNA, gene2 = 21-24\2
`
	parts, err := ParsePartitionFile(strings.NewReader(src), 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("got %d partitions", len(parts))
	}
	if parts[0].Type != DNA || parts[1].Type != AA || parts[2].Type != DNA {
		t.Error("types wrong")
	}
	if len(parts[0].Sites) != 10 || len(parts[1].Sites) != 16 || len(parts[2].Sites) != 2 {
		t.Errorf("site counts: %d %d %d", len(parts[0].Sites), len(parts[1].Sites), len(parts[2].Sites))
	}
	if parts[2].Sites[0] != 20 || parts[2].Sites[1] != 22 {
		t.Errorf("stride parse wrong: %v", parts[2].Sites)
	}

	for _, bad := range []string{
		"DNA gene = 1-10",             // missing comma
		"DNA, gene 1-10",              // missing =
		"FOO, gene = 1-10",            // unknown model
		"DNA, g = 0-10",               // out of range
		"DNA, g = 5-2",                // inverted
		"DNA, g = 1-10\nDNA, h = 5-8", // overlap
		"DNA, g = ",                   // empty
	} {
		if _, err := ParsePartitionFile(strings.NewReader(bad), 30); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

func TestPartitionFileRoundTrip(t *testing.T) {
	parts := []Partition{
		{Name: "g0", Type: DNA, Sites: []int{0, 1, 2, 5, 6}},
		{Name: "g1", Type: AA, Sites: []int{3, 4, 7}},
	}
	var buf bytes.Buffer
	if err := WritePartitionFile(&buf, parts); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePartitionFile(&buf, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range parts {
		if back[i].Type != parts[i].Type || len(back[i].Sites) != len(parts[i].Sites) {
			t.Fatalf("roundtrip mismatch at %d: %+v vs %+v", i, back[i], parts[i])
		}
		for j := range parts[i].Sites {
			if back[i].Sites[j] != parts[i].Sites[j] {
				t.Fatalf("site mismatch %d/%d", i, j)
			}
		}
	}
}

func TestPhylipRoundTrip(t *testing.T) {
	a := mkAlign(t, []string{"alpha", "b", "gamma3"}, []string{"ACGTAC", "CCGTAA", "TTGTAC"})
	var buf bytes.Buffer
	if err := WritePhylip(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPhylip(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Names {
		if back.Names[i] != a.Names[i] || string(back.Seqs[i]) != string(a.Seqs[i]) {
			t.Fatalf("roundtrip row %d mismatch", i)
		}
	}
}

func TestReadPhylipMultiline(t *testing.T) {
	src := "3 8\nt1 ACGT\nACGT\nt2 CCCC CCCC\nt3\nGGGGGGGG\n"
	a, err := ReadPhylip(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Seqs[0]) != "ACGTACGT" || string(a.Seqs[1]) != "CCCCCCCC" || string(a.Seqs[2]) != "GGGGGGGG" {
		t.Errorf("parsed %q %q %q", a.Seqs[0], a.Seqs[1], a.Seqs[2])
	}
	for _, bad := range []string{
		"", "x y\n", "2 4\nt1 ACGT\n", "3 4\nt1 ACGT\nt2 AC\nt3 ACGT\n",
		"3 2\nt1 AC\nt2 AC\nt3 AC\nGG\n",
	} {
		if _, err := ReadPhylip(strings.NewReader(bad)); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

func TestReadFasta(t *testing.T) {
	src := ">t1 description\nACGT\nACGT\n>t2\nCCCCCCCC\n>t3\nGGGGGGGG\n"
	a, err := ReadFasta(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTaxa() != 3 || a.NumSites() != 8 || a.Names[0] != "t1" {
		t.Errorf("parsed %d taxa %d sites", a.NumTaxa(), a.NumSites())
	}
	if _, err := ReadFasta(strings.NewReader("ACGT\n>t1\nACGT\n")); err == nil {
		t.Error("expected error for data before header")
	}
}

func TestStatsSummary(t *testing.T) {
	a := mkAlign(t, []string{"t1", "t2", "t3"}, []string{
		"ACGTACGTAA", "ACGTACGTCC", "ACGTACGTGG",
	})
	parts := []Partition{
		{Name: "g0", Type: DNA, Sites: []int{0, 1, 2, 3, 4, 5}},
		{Name: "g1", Type: DNA, Sites: []int{6, 7, 8, 9}},
	}
	d, err := Compress(a, parts, CompressOptions{KeepDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.NumPartitions != 2 || st.MinPatterns != 4 || st.MaxPatterns != 6 || st.TotalPatterns != 10 {
		t.Errorf("stats = %+v", st)
	}
	if d.MaxStates() != 4 {
		t.Errorf("MaxStates = %d", d.MaxStates())
	}
}

// Property: compression preserves total site count and weight sums,
// deduplication never increases the pattern count, and the present-code lists
// match the tip rows.
func TestCompressQuickProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		m := 1 + rng.Intn(40)
		names := make([]string, n)
		seqs := make([][]byte, n)
		const chars = "ACGT-N"
		for i := 0; i < n; i++ {
			names[i] = string(rune('a' + i))
			row := make([]byte, m)
			for j := range row {
				row[j] = chars[rng.Intn(len(chars))]
			}
			seqs[i] = row
		}
		a, err := New(names, seqs)
		if err != nil {
			return false
		}
		d, err := Compress(a, SinglePartition(a, DNA, ""), CompressOptions{})
		if err != nil {
			return false
		}
		sum := 0.0
		for _, w := range d.Parts[0].Weights {
			sum += w
		}
		// Every taxon's Codes is exactly the set of its Tips row, ascending.
		for tx, row := range d.Parts[0].Tips {
			var seen [16]bool
			for _, code := range row {
				seen[code] = true
			}
			var want []byte
			for code, ok := range seen {
				if ok {
					want = append(want, byte(code))
				}
			}
			if string(d.Parts[0].Codes[tx]) != string(want) {
				return false
			}
		}
		return int(sum) == m && d.TotalPatterns <= m && d.Parts[0].SiteCount == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
