// Package alignment implements the input-data substrate of the phylogenetic
// likelihood kernel: multiple sequence alignments of DNA or protein data,
// site-pattern compression, partitioned (multi-gene) layouts with support for
// "gappy" phylogenomic alignments, and PHYLIP/FASTA/partition-file I/O.
package alignment

import (
	"errors"
	"fmt"
)

// DataType identifies the character alphabet of a partition.
type DataType int

const (
	// DNA is 4-state nucleotide data.
	DNA DataType = iota
	// AA is 20-state amino-acid (protein) data.
	AA
)

// States returns the number of character states of the alphabet.
func (d DataType) States() int {
	switch d {
	case DNA:
		return 4
	case AA:
		return 20
	default:
		return 0
	}
}

// String names the data type using the RAxML partition-file vocabulary.
func (d DataType) String() string {
	switch d {
	case DNA:
		return "DNA"
	case AA:
		return "AA"
	default:
		return fmt.Sprintf("DataType(%d)", int(d))
	}
}

// Alignment is an uncompressed multiple sequence alignment: n taxa (rows)
// by m columns of raw characters. Mixed-type phylogenomic alignments carry a
// single character matrix; the per-column data type is assigned later by the
// partition scheme.
type Alignment struct {
	Names []string // taxon labels, unique
	Seqs  [][]byte // raw sequence characters; all rows have equal length
}

// New constructs an alignment and validates its shape.
func New(names []string, seqs [][]byte) (*Alignment, error) {
	if len(names) != len(seqs) {
		return nil, errors.New("alignment: name/sequence count mismatch")
	}
	if len(names) < 3 {
		return nil, errors.New("alignment: need at least 3 taxa for an unrooted tree")
	}
	m := len(seqs[0])
	if m == 0 {
		return nil, errors.New("alignment: empty sequences")
	}
	seen := make(map[string]bool, len(names))
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("alignment: taxon %d has an empty name", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("alignment: duplicate taxon name %q", name)
		}
		seen[name] = true
		if len(seqs[i]) != m {
			return nil, fmt.Errorf("alignment: taxon %q has length %d, want %d", name, len(seqs[i]), m)
		}
	}
	return &Alignment{Names: names, Seqs: seqs}, nil
}

// NumTaxa returns the number of sequences.
func (a *Alignment) NumTaxa() int { return len(a.Names) }

// NumSites returns the number of alignment columns.
func (a *Alignment) NumSites() int {
	if len(a.Seqs) == 0 {
		return 0
	}
	return len(a.Seqs[0])
}
