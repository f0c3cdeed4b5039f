package alignment

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Partition describes one gene/partition of a phylogenomic alignment: a name,
// a data type, and the set of alignment columns it owns (0-based indices into
// the uncompressed alignment).
type Partition struct {
	Name  string
	Type  DataType
	Sites []int
}

// SinglePartition covers every column of a with one DNA or AA partition.
func SinglePartition(a *Alignment, t DataType, name string) []Partition {
	sites := make([]int, a.NumSites())
	for i := range sites {
		sites[i] = i
	}
	if name == "" {
		name = "all"
	}
	return []Partition{{Name: name, Type: t, Sites: sites}}
}

// UniformPartitions splits the alignment into contiguous partitions of
// partLen columns each (the paper's p1000/p5000/p10000 schemes); the final
// partition absorbs any remainder shorter than partLen/2, matching how the
// paper's partition files were generated from fixed-length genes.
func UniformPartitions(a *Alignment, t DataType, partLen int) ([]Partition, error) {
	m := a.NumSites()
	if partLen <= 0 || partLen > m {
		return nil, fmt.Errorf("alignment: partition length %d invalid for %d sites", partLen, m)
	}
	var parts []Partition
	for start := 0; start < m; start += partLen {
		end := start + partLen
		if end > m {
			end = m
		}
		sites := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			sites = append(sites, i)
		}
		parts = append(parts, Partition{
			Name:  fmt.Sprintf("p%d", len(parts)),
			Type:  t,
			Sites: sites,
		})
	}
	// Merge a trailing stub into its predecessor to keep partition geometry
	// close to the nominal length.
	if n := len(parts); n >= 2 && len(parts[n-1].Sites) < partLen/2 {
		parts[n-2].Sites = append(parts[n-2].Sites, parts[n-1].Sites...)
		parts = parts[:n-1]
	}
	return parts, nil
}

// ParsePartitionFile reads a RAxML-style partition file:
//
//	DNA, gene0 = 1-1000
//	WAG, gene1 = 1001-2000, 2501-2600
//	DNA, gene2 = 2001-2500\3
//
// Model names map onto data types: DNA-family names to DNA, protein-matrix
// names (WAG, JTT, LG, DAYHOFF, PROT*) to AA. Ranges are 1-based inclusive,
// "\k" denotes a stride (every k-th column).
func ParsePartitionFile(r io.Reader, numSites int) ([]Partition, error) {
	var parts []Partition
	used := make([]int, numSites) // detects overlaps: 0 = free, else partition index+1
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		comma := strings.Index(line, ",")
		if comma < 0 {
			return nil, fmt.Errorf("partition file line %d: missing model separator ','", lineNo)
		}
		model := strings.TrimSpace(line[:comma])
		rest := line[comma+1:]
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return nil, fmt.Errorf("partition file line %d: missing '='", lineNo)
		}
		name := strings.TrimSpace(rest[:eq])
		if name == "" {
			name = fmt.Sprintf("part%d", len(parts))
		}
		dt, err := modelNameToType(model)
		if err != nil {
			return nil, fmt.Errorf("partition file line %d: %v", lineNo, err)
		}
		sites, err := parseRanges(rest[eq+1:], numSites)
		if err != nil {
			return nil, fmt.Errorf("partition file line %d: %v", lineNo, err)
		}
		for _, s := range sites {
			if used[s] != 0 {
				return nil, fmt.Errorf("partition file line %d: column %d already assigned to partition %d", lineNo, s+1, used[s]-1)
			}
			used[s] = len(parts) + 1
		}
		parts = append(parts, Partition{Name: name, Type: dt, Sites: sites})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, errors.New("partition file: no partitions found")
	}
	return parts, nil
}

// WritePartitionFile emits the RAxML-style partition description for parts,
// compressing consecutive site runs into ranges.
func WritePartitionFile(w io.Writer, parts []Partition) error {
	for _, p := range parts {
		model := "DNA"
		if p.Type == AA {
			model = "WAG"
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s, %s = ", model, p.Name)
		first := true
		i := 0
		for i < len(p.Sites) {
			j := i
			for j+1 < len(p.Sites) && p.Sites[j+1] == p.Sites[j]+1 {
				j++
			}
			if !first {
				b.WriteString(", ")
			}
			first = false
			if i == j {
				fmt.Fprintf(&b, "%d", p.Sites[i]+1)
			} else {
				fmt.Fprintf(&b, "%d-%d", p.Sites[i]+1, p.Sites[j]+1)
			}
			i = j + 1
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func modelNameToType(model string) (DataType, error) {
	m := strings.ToUpper(model)
	switch {
	case m == "DNA" || m == "GTR" || m == "NUC" || strings.HasPrefix(m, "GTR"):
		return DNA, nil
	case m == "WAG" || m == "JTT" || m == "LG" || m == "DAYHOFF" || m == "AA" ||
		m == "SYN20" || strings.HasPrefix(m, "PROT"):
		return AA, nil
	default:
		return 0, fmt.Errorf("unknown model name %q", model)
	}
}

func parseRanges(spec string, numSites int) ([]int, error) {
	var sites []int
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		stride := 1
		if bs := strings.Index(tok, "\\"); bs >= 0 {
			s, err := strconv.Atoi(strings.TrimSpace(tok[bs+1:]))
			if err != nil || s <= 0 {
				return nil, fmt.Errorf("bad stride in %q", tok)
			}
			stride = s
			tok = strings.TrimSpace(tok[:bs])
		}
		lo, hi := 0, 0
		if dash := strings.Index(tok, "-"); dash >= 0 {
			a, err1 := strconv.Atoi(strings.TrimSpace(tok[:dash]))
			b, err2 := strconv.Atoi(strings.TrimSpace(tok[dash+1:]))
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad range %q", tok)
			}
			lo, hi = a, b
		} else {
			a, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("bad column %q", tok)
			}
			lo, hi = a, a
		}
		if lo < 1 || hi < lo || hi > numSites {
			return nil, fmt.Errorf("range %q out of bounds 1..%d", tok, numSites)
		}
		for c := lo; c <= hi; c += stride {
			sites = append(sites, c-1)
		}
	}
	if len(sites) == 0 {
		return nil, errors.New("empty site specification")
	}
	return sites, nil
}
