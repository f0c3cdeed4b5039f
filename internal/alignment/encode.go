package alignment

import "fmt"

// DNA tip states are 4-bit presence masks over {A, C, G, T}; the full IUPAC
// ambiguity alphabet maps onto masks, and gaps/unknowns map onto the all-set
// mask (15), which contributes a constant factor to the likelihood exactly as
// in RAxML.
const (
	dnaA = 1
	dnaC = 2
	dnaG = 4
	dnaT = 8
	// DNAGap is the encoded value of a DNA gap/unknown character.
	DNAGap = 15
)

// AA tip states are indices 0..19 in the canonical one-letter order
// ARNDCQEGHILKMFPSTWYV; the ambiguity codes B (N or D), Z (Q or E) and the
// gap/unknown class get dedicated codes so tip vectors stay table-driven.
const (
	aaB = 20
	aaZ = 21
	// AAGap is the encoded value of an AA gap/unknown character.
	AAGap = 22
	// NumAACodes is the size of the AA tip-code alphabet.
	NumAACodes = 23
)

const aaOrder = "ARNDCQEGHILKMFPSTWYV"

var (
	dnaCode [256]byte
	aaCode  [256]byte
	// DNATipVectors[code][state] is 1 if the (possibly ambiguous) observed
	// character `code` is compatible with the model state.
	DNATipVectors [16][4]float64
	// AATipVectors is the 20-state analogue over the 23 AA tip codes.
	AATipVectors [NumAACodes][20]float64
	// dnaTipStates[code] / aaTipStates[code] list the states whose tip-vector
	// entry is 1, ascending (see TipStates).
	dnaTipStates [16][]uint8
	aaTipStates  [NumAACodes][]uint8
)

func init() {
	for i := range dnaCode {
		dnaCode[i] = 0xFF // invalid
	}
	set := func(chars string, code byte) {
		for _, c := range chars {
			dnaCode[byte(c)] = code
			// also lowercase
			if c >= 'A' && c <= 'Z' {
				dnaCode[byte(c)+'a'-'A'] = code
			}
		}
	}
	set("A", dnaA)
	set("C", dnaC)
	set("G", dnaG)
	set("TU", dnaT)
	set("M", dnaA|dnaC)
	set("R", dnaA|dnaG)
	set("W", dnaA|dnaT)
	set("S", dnaC|dnaG)
	set("Y", dnaC|dnaT)
	set("K", dnaG|dnaT)
	set("V", dnaA|dnaC|dnaG)
	set("H", dnaA|dnaC|dnaT)
	set("D", dnaA|dnaG|dnaT)
	set("B", dnaC|dnaG|dnaT)
	set("NX?-.O", DNAGap)

	for code := 1; code < 16; code++ {
		for s := 0; s < 4; s++ {
			if code&(1<<uint(s)) != 0 {
				DNATipVectors[code][s] = 1
			}
		}
	}

	for i := range aaCode {
		aaCode[i] = 0xFF
	}
	for idx, c := range aaOrder {
		aaCode[byte(c)] = byte(idx)
		aaCode[byte(c)+'a'-'A'] = byte(idx)
	}
	aaCode['B'], aaCode['b'] = aaB, aaB
	aaCode['Z'], aaCode['z'] = aaZ, aaZ
	for _, c := range "X?-.*" {
		aaCode[byte(c)] = AAGap
	}
	aaCode['x'] = AAGap

	for idx := 0; idx < 20; idx++ {
		AATipVectors[idx][idx] = 1
	}
	AATipVectors[aaB][2] = 1 // N
	AATipVectors[aaB][3] = 1 // D
	AATipVectors[aaZ][5] = 1 // Q
	AATipVectors[aaZ][6] = 1 // E
	for s := 0; s < 20; s++ {
		AATipVectors[AAGap][s] = 1
	}

	for code := range dnaTipStates {
		dnaTipStates[code] = setStates(DNATipVectors[code][:])
	}
	for code := range aaTipStates {
		aaTipStates[code] = setStates(AATipVectors[code][:])
	}
}

// setStates lists the indices of the non-zero entries of vec, ascending.
func setStates(vec []float64) (set []uint8) {
	for s, v := range vec {
		if v != 0 {
			set = append(set, uint8(s))
		}
	}
	return set
}

// noCodes is the code table of an unknown data type: every character is
// invalid, and EncodeChar says why.
var noCodes = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xFF
	}
	return t
}()

// codeTable is the character-to-tip-code table of the data type, 0xFF for a
// character EncodeChar rejects.
func codeTable(t DataType) *[256]byte {
	switch t {
	case DNA:
		return &dnaCode
	case AA:
		return &aaCode
	}
	return &noCodes
}

// EncodeChar maps one raw character onto its tip code for the data type.
func EncodeChar(t DataType, c byte) (byte, error) {
	var code byte
	switch t {
	case DNA:
		code = dnaCode[c]
	case AA:
		code = aaCode[c]
	default:
		return 0, fmt.Errorf("alignment: unknown data type %v", t)
	}
	if code == 0xFF {
		return 0, fmt.Errorf("alignment: invalid %v character %q", t, string(rune(c)))
	}
	return code, nil
}

// GapCode returns the all-states (gap/unknown) tip code for the data type.
func GapCode(t DataType) byte {
	if t == DNA {
		return DNAGap
	}
	return AAGap
}

// IsGapCode reports whether an encoded state carries no information.
func IsGapCode(t DataType, code byte) bool { return code == GapCode(t) }

// DecodeChar maps a tip code back to a representative character (used by the
// sequence simulator and writers). Ambiguous DNA masks map to IUPAC letters.
func DecodeChar(t DataType, code byte) byte {
	if t == DNA {
		const iupac = "-ACMGRSVTWYHKDBN"
		if int(code) < len(iupac) {
			return iupac[code]
		}
		return 'N'
	}
	if int(code) < len(aaOrder) {
		return aaOrder[code]
	}
	switch code {
	case aaB:
		return 'B'
	case aaZ:
		return 'Z'
	default:
		return 'X'
	}
}

// StateChar returns the character of a concrete (non-ambiguous) model state
// index: 0..3 for DNA, 0..19 for AA.
func StateChar(t DataType, state int) byte {
	if t == DNA {
		return "ACGT"[state]
	}
	return aaOrder[state]
}

// StateToCode converts a concrete model state index into a tip code.
func StateToCode(t DataType, state int) byte {
	if t == DNA {
		return byte(1 << uint(state))
	}
	return byte(state)
}

// NumCodes returns the size of the tip-code alphabet for a data type: 16
// DNA presence masks or the 23 AA codes (20 states + B + Z + gap). The
// tip-case kernel specialization sizes its per-code lookup tables with it.
func NumCodes(t DataType) int {
	if t == DNA {
		return 16
	}
	return NumAACodes
}

// TipVector returns the 0/1 compatibility vector of a tip code.
func TipVector(t DataType, code byte) []float64 {
	if t == DNA {
		return DNATipVectors[code][:]
	}
	return AATipVectors[code][:]
}

// TipStates returns the states a tip code is compatible with — the indices
// of the ones in TipVector(t, code) — in ascending order. A product with a
// tip vector is a sum over exactly these states.
func TipStates(t DataType, code byte) []uint8 {
	if t == DNA {
		return dnaTipStates[code]
	}
	return aaTipStates[code]
}
