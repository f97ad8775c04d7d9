// Package queueing provides the FIFO query queues used by workers and
// the queue state DiffServe's resource allocator estimates waiting
// time from by Little's law (paper §3.3): W = L / lambda, where L is
// the observed queue length and lambda the arrival rate.
package queueing

import (
	"math"
)

// Item is a queued unit of work with its enqueue time.
type Item struct {
	ID      int
	Arrival float64 // time the query entered the system
	Enqueue float64 // time the item joined this queue
}

// FIFO is a first-in-first-out queue with arrival-rate tracking.
// It is not safe for concurrent use; the simulator is single-threaded
// and the cluster runtime wraps it in a mutex.
//
// Every operation is amortized O(1) in the queue's length and the rate
// window's: the queue and the window each keep a head index past their
// dead prefix and slide the live part down only once the dead prefix
// passes half of the slice.
type FIFO struct {
	items []Item
	head  int // items[head:] are queued
	// arrival-rate window: arrivals[ahead:] are the push times not yet
	// older than the window.
	arrivals   []float64
	ahead      int
	windowSecs float64
}

// NewFIFO returns a queue whose arrival rate is estimated over the
// given trailing window (seconds). A non-positive window defaults to
// 10 seconds.
func NewFIFO(windowSecs float64) *FIFO {
	if windowSecs <= 0 {
		windowSecs = 10
	}
	return &FIFO{windowSecs: windowSecs}
}

// Push enqueues an item at time now and counts it as an arrival.
func (q *FIFO) Push(now float64, it Item) {
	q.Requeue(now, it)
	q.arrivals = append(q.arrivals, now)
	q.trim(now)
}

// Requeue enqueues an item at time now without counting it as an
// arrival: the cluster's lease sweep puts a reclaimed query back with
// it, and the query arrived once, when it was first pushed.
func (q *FIFO) Requeue(now float64, it Item) {
	it.Enqueue = now
	q.items = append(q.items, it)
}

// Pop dequeues up to n items at time now. It returns fewer when the
// queue holds fewer.
func (q *FIFO) Pop(now float64, n int) []Item {
	if n <= 0 || q.Len() == 0 {
		return nil
	}
	return q.PopAppend(now, n, nil)
}

// PopAppend dequeues up to n items at time now, appending them to dst
// and returning the extended slice. Passing a buffer with spare
// capacity makes the dequeue allocation-free; the hot pull path feeds
// it a pooled scratch slice.
func (q *FIFO) PopAppend(now float64, n int, dst []Item) []Item {
	if n <= 0 || q.Len() == 0 {
		return dst
	}
	n = min(n, q.Len())
	dst = append(dst, q.items[q.head:q.head+n]...)
	q.head += n
	q.items, q.head = compact(q.items, q.head)
	q.trim(now)
	return dst
}

// DropWhere removes queued items for which drop returns true,
// returning the removed items (used for deadline-based shedding). It
// calls drop once per item, in queue order, and leaves the queue as it
// was when nothing is removed.
func (q *FIFO) DropWhere(drop func(Item) bool) []Item {
	live := q.items[q.head:]
	first := 0
	for first < len(live) && !drop(live[first]) {
		first++
	}
	if first == len(live) {
		return nil
	}
	removed := []Item{live[first]}
	kept := live[:first]
	for _, it := range live[first+1:] {
		if drop(it) {
			removed = append(removed, it)
		} else {
			kept = append(kept, it)
		}
	}
	q.items = q.items[:q.head+len(kept)]
	return removed
}

// Len returns the current queue length.
func (q *FIFO) Len() int { return len(q.items) - q.head }

// trim drops arrival records older than the rate window.
func (q *FIFO) trim(now float64) {
	cut := now - q.windowSecs
	for q.ahead < len(q.arrivals) && q.arrivals[q.ahead] < cut {
		q.ahead++
	}
	q.arrivals, q.ahead = compact(q.arrivals, q.ahead)
}

// compact returns s with its dead prefix s[:head] cut and the new head:
// an empty live part resets the slice, and a dead prefix past half its
// length slides the live part down to index 0; otherwise s is returned
// as it was. A slide moves fewer elements than were cut since the last
// one, so its copy is amortized O(1) per cut element.
func compact[T any](s []T, head int) ([]T, int) {
	switch {
	case head == len(s):
		return s[:0], 0
	case head > len(s)/2:
		return s[:copy(s, s[head:])], 0
	}
	return s, head
}

// ArrivalRate estimates the recent arrival rate (items/second) over
// the trailing window at time now.
func (q *FIFO) ArrivalRate(now float64) float64 {
	q.trim(now)
	n := len(q.arrivals) - q.ahead
	if n == 0 {
		return 0
	}
	span := q.windowSecs
	if now < span {
		span = math.Max(now, 1e-9)
	}
	return float64(n) / span
}

// Snapshot is a point-in-time view of queue state consumed by the
// controller.
type Snapshot struct {
	Len         int
	ArrivalRate float64
}

// Snap builds a Snapshot at time now.
func (q *FIFO) Snap(now float64) Snapshot {
	return Snapshot{Len: q.Len(), ArrivalRate: q.ArrivalRate(now)}
}
