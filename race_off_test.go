//go:build !race

package diffserve

const raceEnabled = false
