// Package simring is the discrete-event simulation core driving the
// DiffServe simulator: a virtual clock, a time-ordered event heap
// with deterministic FIFO tie-breaking for simultaneous events, and a
// run's arrivals as one sorted stream merged ahead of the heap. The
// heap holds only what is scheduled while the run goes (control ticks,
// batch completions, worker wake-ups), so it does not grow with the
// trace.
package simring

import (
	"fmt"
	"math"
)

// event is a scheduled callback.
type event struct {
	at  float64
	seq int64
	fn  func()
}

// eventHeap is a typed binary min-heap ordered by (at, seq). It
// replaces the container/heap adapter: pushing and popping concrete
// events avoids boxing every event into an interface{} on the
// simulator's hottest path, and the sift operations inline. The
// ordering predicate is identical to the old heap.Interface Less, so
// pop order is unchanged.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends e and sifts it up.
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	top := s[n]
	s[n] = event{} // release the closure for GC
	s = s[:n]
	*h = s
	// Sift the relocated root down.
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && s.less(right, left) {
			least = right
		}
		if !s.less(least, i) {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// Sim is a single-threaded discrete-event simulator. The zero value
// is ready to use.
type Sim struct {
	now    float64
	seq    int64
	events eventHeap

	// The arrival stream: arrivals[next:] are still to fire, each
	// through onArrival with its index.
	arrivals  []float64
	next      int
	onArrival func(i int)
}

// New returns a simulator with the clock at zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it indicates a simulator bug.
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("simring: scheduling at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("simring: invalid event time %v", t))
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, fn: fn})
}

// Arrivals sets the run's arrival stream: fn(i) runs at time at[i]
// for every i, in index order. An arrival runs before any event At
// scheduled for the same instant, as if every arrival had been
// scheduled before anything else. at must be sorted and start no
// earlier than now, and the previous stream must have finished;
// otherwise Arrivals panics, as scheduling in the past does. The
// stream reads at as it goes, so the caller must not change it.
func (s *Sim) Arrivals(at []float64, fn func(i int)) {
	if s.next < len(s.arrivals) {
		panic(fmt.Sprintf("simring: arrival stream set with %d arrivals of the last one still to run", len(s.arrivals)-s.next))
	}
	prev := s.now
	for i, t := range at {
		if t < prev {
			panic(fmt.Sprintf("simring: arrival %d at %v before %v", i, t, prev))
		}
		if math.IsNaN(t) || math.IsInf(t, 0) {
			panic(fmt.Sprintf("simring: invalid arrival time %v", t))
		}
		prev = t
	}
	s.arrivals, s.next, s.onArrival = at, 0, fn
}

// Run executes arrivals and events in time order until both are
// exhausted or the clock passes until. Events scheduled exactly at
// until still run. It returns the number of arrivals and events
// executed by this call.
func (s *Sim) Run(until float64) int {
	ran := 0
	for {
		if s.next < len(s.arrivals) {
			if at := s.arrivals[s.next]; at <= until && (len(s.events) == 0 || at <= s.events[0].at) {
				i := s.next
				s.next++
				s.now = at
				s.onArrival(i)
				ran++
				continue
			}
		}
		if len(s.events) == 0 || s.events[0].at > until {
			break
		}
		e := s.events.pop()
		s.now = e.at
		e.fn()
		ran++
	}
	// Advance the clock to the horizon even if the queue drained, so
	// successive Run calls observe monotone time.
	if s.now < until {
		s.now = until
	}
	return ran
}

// Drain runs every remaining arrival and event regardless of time.
func (s *Sim) Drain() int { return s.Run(math.Inf(1)) }
