//go:build race

package phylo

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool drops a quarter of all Puts at random, so
// "the next session reuses the last one's buffers" is not a promise.
const raceEnabled = true
