//go:build !amd64

package core

// Without an assembly realisation sumtableGeneric's scalar loop takes every
// pattern.
func (c *spanCtx) sumtableRows(dst []float64, l, r side) bool { return false }
