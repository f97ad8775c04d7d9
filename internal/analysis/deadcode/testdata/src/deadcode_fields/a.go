// Package deadcode_fields is the field rule's in-scope fixture;
// deadcode_use calls Run.
package deadcode_fields

type Stats struct {
	Read    int
	Written int // want `field Stats.Written is read by no non-test file`
	Bumped  int // want `field Stats.Bumped is read by no non-test file`
	Keyed   int // want `field Stats.Keyed is read by no non-test file`
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
	seen := map[key]bool{{1, 2}: true}
	same := pair{1, 2} == (pair{})
	switch (mode{1}) {
	case mode{2}:
		same = !same
	}
	if same {
		return 0
	}
	return s.Read + len(seen) + decodedSent()
}
