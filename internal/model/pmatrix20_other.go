//go:build !amd64

package model

// Without an assembly realisation every 20-state block is pmatrixCols'.
func (m *Model) pmatrices20Vec(t float64, dst []float64) bool { return false }
