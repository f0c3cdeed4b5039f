//go:build !amd64

package core

// Without an assembly realisation SiteLogs takes every log with math.Log.
var hostSiteLog, vectorSiteLog = false, false

func logsVec(x []float64) int { return 0 }
