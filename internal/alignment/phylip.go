package alignment

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadPhylip parses a (relaxed, sequential or interleaved) PHYLIP alignment:
// a header line "ntax nsites" followed by taxon blocks. Relaxed means taxon
// names are whitespace-delimited rather than fixed-width. Sequence data may
// span multiple lines and contain spaces.
func ReadPhylip(r io.Reader) (*Alignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 64<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("phylip: empty input")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 2 {
		return nil, fmt.Errorf("phylip: bad header %q", sc.Text())
	}
	ntax, err1 := strconv.Atoi(fields[0])
	nsites, err2 := strconv.Atoi(fields[1])
	if err1 != nil || err2 != nil || ntax <= 0 || nsites <= 0 {
		return nil, fmt.Errorf("phylip: bad header %q", sc.Text())
	}
	// The header is a claim, not a size: buffers grow with the bytes read,
	// so a hostile "4000000000000000000 1" costs what its body costs.
	var names []string
	var seqs [][]byte
	cur := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if len(names) < ntax && (cur < 0 || len(seqs[cur]) >= nsites) {
			// New taxon record: first token is the name.
			fs := strings.Fields(line)
			names = append(names, fs[0])
			// One allocation for the one-line-per-taxon file: the line holds
			// the whole sequence, so it bounds the capacity as well as nsites.
			seq := make([]byte, 0, min(nsites, len(line)))
			for _, f := range fs[1:] {
				seq = append(seq, []byte(f)...)
			}
			seqs = append(seqs, seq)
			cur = len(seqs) - 1
			continue
		}
		// Continuation (sequential) or interleaved block line: append to the
		// first still-short sequence.
		target := -1
		for i := range seqs {
			if len(seqs[i]) < nsites {
				target = i
				break
			}
		}
		if target < 0 {
			return nil, fmt.Errorf("phylip: extra data after all sequences complete: %q", line)
		}
		for _, f := range strings.Fields(line) {
			seqs[target] = append(seqs[target], []byte(f)...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(names) != ntax {
		return nil, fmt.Errorf("phylip: found %d taxa, header says %d", len(names), ntax)
	}
	for i := range seqs {
		if len(seqs[i]) != nsites {
			return nil, fmt.Errorf("phylip: taxon %q has %d sites, header says %d", names[i], len(seqs[i]), nsites)
		}
	}
	return New(names, seqs)
}

// WritePhylip emits the alignment in relaxed sequential PHYLIP format.
func WritePhylip(w io.Writer, a *Alignment) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d\n", a.NumTaxa(), a.NumSites())
	width := 0
	for _, n := range a.Names {
		if len(n) > width {
			width = len(n)
		}
	}
	for i, n := range a.Names {
		fmt.Fprintf(bw, "%-*s  ", width, n)
		bw.Write(a.Seqs[i])
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadFasta parses a FASTA alignment (all records must share one length).
func ReadFasta(r io.Reader) (*Alignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var names []string
	var seqs [][]byte
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ">") {
			names = append(names, strings.Fields(line[1:])[0])
			seqs = append(seqs, nil)
			continue
		}
		if len(seqs) == 0 {
			return nil, fmt.Errorf("fasta: sequence data before first header")
		}
		seqs[len(seqs)-1] = append(seqs[len(seqs)-1], []byte(strings.ReplaceAll(line, " ", ""))...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(names, seqs)
}
