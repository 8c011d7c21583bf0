package sched

import "sync"

// claimQueue is the bounded hand-off between a producer and the worker pool.
// It holds at most depth queued items (the backpressure bound: a full queue
// blocks push, or fails tryPushAll), and the policy decides which queued
// item a worker claims:
//
//   - Dynamic: one shared FIFO, workers claim in arrival order.
//   - Static: each item is pinned to its owner worker; no balancing.
//   - WorkStealing: pinned like Static, but an idle worker steals the
//     oldest item from another worker's backlog, round-robin.
type claimQueue[T any] struct {
	mu    sync.Mutex
	avail *sync.Cond // an item was queued, or the queue closed/aborted
	space *sync.Cond // an item was claimed, or the queue aborted

	kind    Kind
	queues  [][]T // one FIFO for Dynamic, one per worker otherwise
	queued  int
	depth   int
	nextSeq int // tryPushAll's round-robin owner counter
	closed  bool
	aborted bool
}

func newClaimQueue[T any](kind Kind, workers, depth int) *claimQueue[T] {
	n := workers
	if kind == Dynamic {
		n = 1
	}
	q := &claimQueue[T]{kind: kind, queues: make([][]T, n), depth: depth}
	q.avail = sync.NewCond(&q.mu)
	q.space = sync.NewCond(&q.mu)
	return q
}

// push blocks until there is room for v, which is pinned to worker owner
// (mod the worker count) under the non-dynamic policies. It returns false
// if the queue is closed, or aborted while waiting.
func (q *claimQueue[T]) push(owner int, v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.queued >= q.depth && !q.aborted {
		q.space.Wait()
	}
	if q.closed || q.aborted {
		return false
	}
	q.enqueue(owner, v)
	return true
}

// tryPushAll is the admission-control entry point: it enqueues every item
// or none, without blocking. It fails once the queue is closed (draining)
// or when the items would not all fit under the depth bound — the caller
// turns that into a queue-full rejection instead of queueing unboundedly.
// Owners are assigned round-robin, in admission order.
func (q *claimQueue[T]) tryPushAll(vs []T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.aborted || q.queued+len(vs) > q.depth {
		return false
	}
	for _, v := range vs {
		q.enqueue(q.nextSeq, v)
		q.nextSeq++
	}
	return true
}

// enqueue appends v to owner's slot (caller holds q.mu).
func (q *claimQueue[T]) enqueue(owner int, v T) {
	slot := 0
	if q.kind != Dynamic {
		slot = owner % len(q.queues)
	}
	q.queues[slot] = append(q.queues[slot], v)
	q.queued++
	q.avail.Broadcast()
}

// pop blocks until worker w claims an item. stolen reports that the item
// came from another worker's backlog (WorkStealing only); ok is false once
// the queue is closed and drained, or aborted.
func (q *claimQueue[T]) pop(w int) (v T, stolen, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.aborted {
			return v, false, false
		}
		own := 0
		if q.kind != Dynamic {
			own = w
		}
		if len(q.queues[own]) > 0 {
			return q.take(own), false, true
		}
		if q.kind == WorkStealing {
			for off := 1; off < len(q.queues); off++ {
				s := (w + off) % len(q.queues)
				if len(q.queues[s]) > 0 {
					return q.take(s), true, true
				}
			}
		}
		if q.closed && q.queued == 0 {
			return v, false, false
		}
		q.avail.Wait()
	}
}

// take removes the oldest item from slot (caller holds q.mu). The vacated
// element is zeroed so the backing array does not keep a claimed item
// alive until the slot next reallocates.
func (q *claimQueue[T]) take(slot int) T {
	s := q.queues[slot]
	v := s[0]
	var zero T
	s[0] = zero
	q.queues[slot] = s[1:]
	q.queued--
	q.space.Broadcast()
	if q.closed && q.queued == 0 {
		// Wake workers pinned to other (now permanently empty) slots.
		q.avail.Broadcast()
	}
	return v
}

// close marks the end of production; drained workers exit.
func (q *claimQueue[T]) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.avail.Broadcast()
}

// abort unblocks everyone; pending items are dropped.
func (q *claimQueue[T]) abort() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.aborted = true
	q.avail.Broadcast()
	q.space.Broadcast()
}
