package sched

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Pool is the persistent worker pool every mapping mode runs on: a fixed
// set of goroutines, each wearing its map-stage pprof labels, claims items
// from a bounded claim queue under the scheduling policy and hands each to
// the caller's work function. The pool counts claims and steals
// (sched_claims_total and sched_steals_total, sharded by worker) and the
// items each worker processed, so a caller keeps only what is its own:
// batch mode queues its whole workload up front, the streaming pipeline
// adds ingest and ordered emit, and the serving session adds admission and
// request completion.
type Pool[T any] struct {
	q         *claimQueue[T]
	wg        sync.WaitGroup
	processed []atomic.Int64
	steals    atomic.Int64
}

// NewPool starts workers (≥ 1) goroutines claiming from a queue that holds
// at most depth items under kind. work runs one claimed item on worker's
// behalf and returns how many items (records) it processed, for Stats. reg
// and labels may be nil.
func NewPool[T any](kind Kind, workers, depth int, reg *obs.Registry, labels *obs.ProfLabels, work func(worker int, v T) int) *Pool[T] {
	p := &Pool[T]{
		q:         newClaimQueue[T](kind, workers, depth),
		processed: make([]atomic.Int64, workers),
	}
	// Declaring the worker population lets scrapes derive the claim
	// imbalance and steal-share gauges from the per-shard counters.
	reg.SetWorkerShards(workers)
	claims := reg.Counter(obs.MetricSchedClaims)
	steals := reg.Counter(obs.MetricSchedSteals)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer p.wg.Done()
			// Workers persist across items, so labelling once per goroutine
			// splits a -profile capture by worker with the hot path
			// untouched.
			labels.ApplyMap(w)
			for {
				v, stolen, ok := p.q.pop(w)
				if !ok {
					return
				}
				claims.Inc(w)
				if stolen {
					p.steals.Add(1)
					steals.Inc(w)
				}
				p.processed[w].Add(int64(work(w, v)))
			}
		}(w)
	}
	return p
}

// Push blocks until there is room for v, which is pinned to worker owner
// (mod the worker count) under Static and WorkStealing; Dynamic ignores
// owner. It returns false once the pool is closing or aborted.
func (p *Pool[T]) Push(owner int, v T) bool { return p.q.push(owner, v) }

// TryPushAll queues every item or none, without blocking, pinning them to
// workers round-robin. It fails once the pool is closing or aborted, or
// when the items would not all fit under the depth bound.
func (p *Pool[T]) TryPushAll(vs []T) bool { return p.q.tryPushAll(vs) }

// Close ends production: workers drain what is queued, and Close returns
// once every worker has exited. Idempotent.
func (p *Pool[T]) Close() {
	p.q.close()
	p.wg.Wait()
}

// Abort drops every queued item and unblocks pushers and idle workers
// without waiting for them; a worker inside work finishes that item first.
// Call Close to wait for the workers.
func (p *Pool[T]) Abort() { p.q.abort() }

// Stats reports the items each worker processed and the steals so far;
// after Close it is final.
func (p *Pool[T]) Stats() Stats {
	st := Stats{Processed: make([]int64, len(p.processed)), Steals: p.steals.Load()}
	for w := range p.processed {
		st.Processed[w] = p.processed[w].Load()
	}
	return st
}
