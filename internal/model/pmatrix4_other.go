//go:build !amd64

package model

// Without an assembly realisation every block is the scalar pmatrix4.
var hostPMatrix, vectorPMatrix = false, false

func (m *Model) pmatrices4Vec(t float64, dst []float64) bool { return false }
