package core

// sumtableAVX writes one pattern's sumtable rows dst[cat·s:(cat+1)·s] for
// every cat < cats, s = len(freqs) being 4 or 20: the projections of l and r
// (a table row where rows bit 0 or 1 is set, else the vectors l[cat·ls:] and
// r[cat·rs:]), multiplied and scaled by invCats.
//
//go:noescape
func sumtableAVX(dst, l, r, freqs, ev, eviT []float64, ls, rs, cats int, invCats float64, rows int)

// sumtableRows runs the kernel over one pattern's categories, or reports
// false where it does not run or the shapes are not its own: every index is
// checked here, once, by each side's last vector.
//
//plk:hotpath
func (c *spanCtx) sumtableRows(dst []float64, l, r side) bool {
	s, cats := len(c.freqs), c.cats
	if !SumtableKernel.On() || s != 4 && s != 20 || cats < 1 || len(dst) < cats*s || len(c.ev) < s*s || len(c.eviT) < s*s ||
		!l.fits(s, cats) || !r.fits(s, cats) {
		return false
	}
	rows := 0
	if l.row {
		rows |= 1
	}
	if r.row {
		rows |= 2
	}
	sumtableAVX(dst, l.x, r.x, c.freqs, c.ev, c.eviT, l.stride, r.stride, cats, c.invCats, rows)
	return true
}

// fits reports whether the kernel's reads of the side stay inside x.
func (d side) fits(s, cats int) bool {
	if d.row {
		return len(d.x) >= s
	}
	return d.stride >= 0 && (cats-1)*d.stride+s <= len(d.x)
}
