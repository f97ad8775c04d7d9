//go:build race

package diffserve

// raceEnabled gates the allocation budgets: the race detector's
// runtime changes what a call allocates.
const raceEnabled = true
