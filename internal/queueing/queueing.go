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
type FIFO struct {
	items []Item
	// arrival-rate window
	arrivals   []float64
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

// Push enqueues an item at time now.
func (q *FIFO) Push(now float64, it Item) {
	it.Enqueue = now
	q.items = append(q.items, it)
	q.arrivals = append(q.arrivals, now)
	q.trim(now)
}

// Pop dequeues up to n items at time now. It returns fewer when the
// queue holds fewer.
func (q *FIFO) Pop(now float64, n int) []Item {
	if n <= 0 || len(q.items) == 0 {
		return nil
	}
	return q.PopAppend(now, n, nil)
}

// PopAppend dequeues up to n items at time now, appending them to dst
// and returning the extended slice. Passing a buffer with spare
// capacity makes the dequeue allocation-free; the hot pull path feeds
// it a pooled scratch slice.
func (q *FIFO) PopAppend(now float64, n int, dst []Item) []Item {
	if n <= 0 || len(q.items) == 0 {
		return dst
	}
	if n > len(q.items) {
		n = len(q.items)
	}
	dst = append(dst, q.items[:n]...)
	q.items = append(q.items[:0], q.items[n:]...)
	q.trim(now)
	return dst
}

// DropWhere removes queued items for which drop returns true,
// returning the removed items (used for deadline-based shedding).
func (q *FIFO) DropWhere(drop func(Item) bool) []Item {
	var removed []Item
	kept := q.items[:0]
	for _, it := range q.items {
		if drop(it) {
			removed = append(removed, it)
		} else {
			kept = append(kept, it)
		}
	}
	q.items = kept
	return removed
}

// Len returns the current queue length.
func (q *FIFO) Len() int { return len(q.items) }

// trim drops arrival records older than the rate window.
func (q *FIFO) trim(now float64) {
	cut := now - q.windowSecs
	i := 0
	for i < len(q.arrivals) && q.arrivals[i] < cut {
		i++
	}
	if i > 0 {
		q.arrivals = append(q.arrivals[:0], q.arrivals[i:]...)
	}
}

// ArrivalRate estimates the recent arrival rate (items/second) over
// the trailing window at time now.
func (q *FIFO) ArrivalRate(now float64) float64 {
	q.trim(now)
	if len(q.arrivals) == 0 {
		return 0
	}
	span := q.windowSecs
	if now < span {
		span = math.Max(now, 1e-9)
	}
	return float64(len(q.arrivals)) / span
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
