package alignment

import "fmt"

// CompressedPartition holds one partition's data after site-pattern
// compression: distinct column patterns with multiplicities (weights), plus
// per-taxon encoded tip states per pattern. Patterns of all partitions are
// laid out consecutively in a single global pattern index space; Offset is
// this partition's first global pattern index. This layout is what
// internal/schedule assigns to workers (cyclically by default).
type CompressedPartition struct {
	Name         string
	Type         DataType
	Offset       int       // first global pattern index
	PatternCount int       // m' for this partition
	SiteCount    int       // uncompressed site count (sum of weights)
	Weights      []float64 // pattern multiplicities
	Tips         [][]byte  // [taxon][pattern] encoded tip codes
	Present      []bool    // [taxon] true if the taxon has any non-gap site here
	// Codes lists, per taxon, the distinct tip codes of its Tips row in
	// ascending order — typically 4-5 of the 16 DNA codes. The kernel's
	// tip-case tables build only these rows: a row is read at Tips[t][j], so
	// no other row is reachable for that taxon.
	Codes [][]byte
}

// End returns one past the partition's last global pattern index.
func (p *CompressedPartition) End() int { return p.Offset + p.PatternCount }

// CompressedData is a fully encoded, pattern-compressed, partitioned dataset:
// the direct input of the likelihood kernel.
type CompressedData struct {
	TaxaNames     []string
	Parts         []*CompressedPartition
	TotalPatterns int // sum over partitions of PatternCount
	TotalSites    int // sum over partitions of SiteCount
}

// NumTaxa returns the number of sequences in the dataset.
func (d *CompressedData) NumTaxa() int { return len(d.TaxaNames) }

// PartitionOf returns the partition owning the global pattern index i.
func (d *CompressedData) PartitionOf(i int) *CompressedPartition {
	for _, p := range d.Parts {
		if i >= p.Offset && i < p.End() {
			return p
		}
	}
	return nil
}

// MaxStates returns the widest alphabet across partitions (4 or 20); the
// kernel sizes its conditional likelihood vectors with it.
func (d *CompressedData) MaxStates() int {
	s := 0
	for _, p := range d.Parts {
		if st := p.Type.States(); st > s {
			s = st
		}
	}
	return s
}

// CompressOptions controls pattern compression.
type CompressOptions struct {
	// KeepDuplicates disables deduplication, so every column becomes its own
	// weight-1 pattern (m = m'); the paper's simulated datasets are generated
	// with all-unique columns, making the two equivalent there.
	KeepDuplicates bool
}

// Compress encodes and pattern-compresses an alignment under a partition
// scheme. Identical columns *within the same partition* are merged and
// weighted; columns are never merged across partitions because partitions
// have distinct model parameters. Patterns are numbered by first occurrence.
//
// It is one pass over each partition's columns: a character is encoded
// through its type's code table, straight into the tail of the partition's
// pattern-major buffer, and a column seen before is found in the index
// without allocating, so only a new pattern allocates (its key). The buffer
// is then transposed into Tips, taxon-major for cache-friendly kernel access.
func Compress(a *Alignment, parts []Partition, opts CompressOptions) (*CompressedData, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("alignment: no partitions")
	}
	n := a.NumTaxa()
	d := &CompressedData{TaxaNames: append([]string(nil), a.Names...), Parts: make([]*CompressedPartition, 0, len(parts))}
	var index map[string]int // one for all partitions, cleared between them
	if !opts.KeepDuplicates {
		most := 0
		for i := range parts {
			most = max(most, len(parts[i].Sites))
		}
		index = make(map[string]int, most)
	}
	offset := 0
	for pi := range parts {
		part := &parts[pi]
		if len(part.Sites) == 0 {
			return nil, fmt.Errorf("alignment: partition %q is empty", part.Name)
		}
		cp := &CompressedPartition{
			Name:      part.Name,
			Type:      part.Type,
			Offset:    offset,
			SiteCount: len(part.Sites),
			Present:   make([]bool, n),
		}
		table := codeTable(part.Type)
		clear(index)
		// Pattern i's codes are flat[i*n : (i+1)*n]; a column is encoded into
		// the tail and kept only when it is a new pattern.
		flat := make([]byte, 0, len(part.Sites)*n)
		weights := make([]float64, 0, len(part.Sites))
		for _, site := range part.Sites {
			if site < 0 || site >= a.NumSites() {
				return nil, fmt.Errorf("alignment: partition %q references column %d outside alignment", part.Name, site)
			}
			col := flat[len(flat) : len(flat)+n]
			for t := range col {
				c := a.Seqs[t][site]
				code := table[c]
				if code == 0xFF {
					_, err := EncodeChar(part.Type, c)
					return nil, fmt.Errorf("taxon %q column %d: %v", a.Names[t], site+1, err)
				}
				col[t] = code
			}
			if index != nil {
				if at, ok := index[string(col)]; ok {
					weights[at]++
					continue
				}
				index[string(col)] = len(weights)
			}
			flat = flat[:len(flat)+n]
			weights = append(weights, 1)
		}
		np := len(weights)
		cp.PatternCount = np
		cp.Weights = weights
		cp.Tips = make([][]byte, n)
		cp.Codes = make([][]byte, n)
		tips := make([]byte, n*np)
		codes := make([]byte, 0, n*min(np, NumCodes(part.Type)))
		for t := range cp.Tips {
			row := tips[t*np : (t+1)*np : (t+1)*np]
			var seen uint32 // bit c set: the taxon carries tip code c (all codes are < 23)
			for i := range row {
				row[i] = flat[i*n+t]
				seen |= 1 << row[i]
			}
			cp.Tips[t] = row
			cp.Present[t] = seen&^(1<<GapCode(part.Type)) != 0
			from := len(codes)
			for c := byte(0); seen != 0; c, seen = c+1, seen>>1 {
				if seen&1 != 0 {
					codes = append(codes, c)
				}
			}
			cp.Codes[t] = codes[from:len(codes):len(codes)]
		}
		offset += cp.PatternCount
		d.TotalSites += cp.SiteCount
		d.Parts = append(d.Parts, cp)
	}
	d.TotalPatterns = offset
	return d, nil
}

// PartitionStats summarizes partition geometry (the quantities the paper
// reports for its datasets: partition count, min/max pattern counts).
type PartitionStats struct {
	NumPartitions int
	MinPatterns   int
	MaxPatterns   int
	TotalPatterns int
}

// Stats computes the partition geometry summary.
func (d *CompressedData) Stats() PartitionStats {
	st := PartitionStats{NumPartitions: len(d.Parts), TotalPatterns: d.TotalPatterns}
	for i, p := range d.Parts {
		if i == 0 || p.PatternCount < st.MinPatterns {
			st.MinPatterns = p.PatternCount
		}
		if p.PatternCount > st.MaxPatterns {
			st.MaxPatterns = p.PatternCount
		}
	}
	return st
}
