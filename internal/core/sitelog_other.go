//go:build !amd64

package core

// Without an assembly realisation SiteLogs takes every log with math.Log.
func logsVec(x []float64) int { return 0 }
