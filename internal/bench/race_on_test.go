//go:build race

package bench

// raceEnabled reports that this test binary was built with the race
// detector, whose ~10x instrumentation overhead distorts the wall-clock
// ratios the floors measure.
const raceEnabled = true
