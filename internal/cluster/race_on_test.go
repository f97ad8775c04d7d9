//go:build race

package cluster

// raceEnabled gates assertions the race detector's runtime breaks:
// under it sync.Pool drops a quarter of what is put back, so
// allocation counts mean nothing.
const raceEnabled = true
