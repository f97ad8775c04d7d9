// Package deadcode_fields is the field rule's in-scope fixture;
// deadcode_use calls Run.
package deadcode_fields

type Stats struct {
	Read    int
	Written int // want `field Stats.Written is read by no non-test file`
	Bumped  int // want `field Stats.Bumped is read by no non-test file`
	Keyed   int // want `field Stats.Keyed is read by no non-test file`
	// Element writes write the field and do not read it.
	ByName map[string]int // want `field Stats.ByName is read by no non-test file`
	Counts []int          // want `field Stats.Counts is read by no non-test file`
	Grid   [][]int        // want `field Stats.Grid is read by no non-test file`
	// An element read reads the field.
	Looked map[string]int
}

// key's values key a map, pair's are compared and mode's switched on:
// all their fields count as read.
type key struct{ a, b int }
type pair struct{ x, y int }
type mode struct{ m int }

func Run() int {
	s := Stats{Keyed: 1}
	s.Written = 2
	s.Bumped++
	s.ByName["a"] = 1
	s.Counts[0]++
	(s.Grid[0])[1] = 2
	seen := map[key]bool{{1, 2}: true}
	same := pair{1, 2} == (pair{})
	switch (mode{1}) {
	case mode{2}:
		same = !same
	}
	if same {
		return 0
	}
	return s.Read + s.Looked["a"] + len(seen) + decodedSent()
}
