package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func allKinds() []Kind { return []Kind{Dynamic, WorkStealing, Static} }

// runBatches drives a pool over the batches of [0, n) and returns its final
// stats; fn sees every claimed batch as a half-open range. depth 0 is batch
// mode's shape (core.Mapper.Run): every batch queued up front, pinned to
// contiguous even shares. depth > 0 is the streaming shape (pipeline.Run):
// batches pushed one by one through a queue of that depth, pinned
// round-robin, so the producer blocks on backpressure.
func runBatches(kind Kind, threads, batch, depth, n int, fn func(worker, start, end int)) Stats {
	nb := (n + batch - 1) / batch
	streamed := depth > 0
	if !streamed {
		depth = nb
	}
	p := NewPool(kind, threads, depth, nil, nil, func(worker, lo int) int {
		hi := min(lo+batch, n)
		fn(worker, lo, hi)
		return hi - lo
	})
	for i := 0; i < nb; i++ {
		owner := i
		if !streamed {
			owner = i * threads / nb
		}
		if !p.Push(owner, i*batch) {
			panic("push refused by a live pool")
		}
	}
	p.Close()
	return p.Stats()
}

// checkOnce runs one configuration and fails unless every index in [0, n)
// was visited exactly once, in well-formed batches, by in-range workers,
// with Processed summing to n.
func checkOnce(t *testing.T, kind Kind, threads, batch, depth, n int) Stats {
	t.Helper()
	counts := make([]int64, n)
	var batches, bad atomic.Int64
	st := runBatches(kind, threads, batch, depth, n, func(worker, start, end int) {
		batches.Add(1)
		if worker < 0 || worker >= threads || start < 0 || end > n || start >= end || end-start > batch {
			bad.Add(1)
			return
		}
		for i := start; i < end; i++ {
			atomic.AddInt64(&counts[i], 1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%v n=%d t=%d b=%d d=%d: %d malformed claims", kind, n, threads, batch, depth, bad.Load())
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("%v n=%d t=%d b=%d d=%d: index %d visited %d times", kind, n, threads, batch, depth, i, c)
		}
	}
	if want := int64((n + batch - 1) / batch); batches.Load() != want {
		t.Fatalf("%v n=%d t=%d b=%d d=%d: %d batches claimed, want %d", kind, n, threads, batch, depth, batches.Load(), want)
	}
	if len(st.Processed) != threads {
		t.Fatalf("%v: %d Processed entries for %d workers", kind, len(st.Processed), threads)
	}
	var total int64
	for _, p := range st.Processed {
		total += p
	}
	if total != int64(n) {
		t.Fatalf("%v n=%d t=%d b=%d d=%d: Processed sums to %d", kind, n, threads, batch, depth, total)
	}
	return st
}

func TestEveryIndexProcessedExactlyOnce(t *testing.T) {
	for _, kind := range allKinds() {
		for _, n := range []int{0, 1, 7, 100, 1000, 4097} {
			for _, threads := range []int{1, 2, 4, 9} {
				for _, batch := range []int{1, 8, 512} {
					for _, depth := range []int{0, 1, 3} {
						checkOnce(t, kind, threads, batch, depth, n)
					}
				}
			}
		}
	}
}

func TestRunPropertyQuick(t *testing.T) {
	f := func(nRaw uint16, tRaw, bRaw, dRaw, kindRaw uint8) bool {
		n := int(nRaw % 2000)
		threads := int(tRaw%8) + 1
		batch := int(bRaw%64) + 1
		depth := int(dRaw % 4)
		kind := allKinds()[int(kindRaw)%3]
		var processed atomic.Int64
		st := runBatches(kind, threads, batch, depth, n, func(_, start, end int) {
			processed.Add(int64(end - start))
		})
		var total int64
		for _, p := range st.Processed {
			total += p
		}
		return processed.Load() == int64(n) && total == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWorkerIDsInRange(t *testing.T) {
	for _, kind := range allKinds() {
		for _, depth := range []int{0, 2} {
			checkOnce(t, kind, 4, 16, depth, 500)
		}
	}
}

// TestRunBatchesEdgeCases pins the batch-granularity contract on the shapes
// that have historically broken schedulers: workloads smaller than a batch,
// more threads than batches, empty workloads, and unit batches.
func TestRunBatchesEdgeCases(t *testing.T) {
	cases := []struct{ n, threads, batch int }{
		{n: 5, threads: 2, batch: 8},   // n < BatchSize
		{n: 3, threads: 9, batch: 2},   // Threads > batches
		{n: 0, threads: 4, batch: 8},   // n == 0
		{n: 97, threads: 4, batch: 1},  // BatchSize == 1
		{n: 1, threads: 1, batch: 1},   // minimal
		{n: 16, threads: 16, batch: 1}, // one item per worker, max steal pressure
	}
	for _, kind := range allKinds() {
		for _, c := range cases {
			for _, depth := range []int{0, 1} {
				checkOnce(t, kind, c.threads, c.batch, depth, c.n)
			}
		}
	}
}

// frontLoaded makes the first quarter of [0, n) slow: under contiguous
// pinning that is all worker 0's share.
func frontLoaded(n int) func(worker, start, end int) {
	return func(_, start, _ int) {
		if start < n/4 {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

func TestWorkStealingBalancesSkewedWork(t *testing.T) {
	// Front-loaded work: static scheduling leaves worker 0 doing nearly all
	// the time; work stealing must spread it.
	const n = 400
	st := runBatches(WorkStealing, 4, 8, 0, n, frontLoaded(n))
	if st.Steals == 0 {
		t.Error("no steals despite skewed work")
	}
	// The hard property is that stealing happened; the balance bound is
	// loose because single-CPU hosts (and the race detector) serialise the
	// sleep-dominated work.
	if imb := st.Imbalance(); imb > 3.6 {
		t.Errorf("imbalance %f too high for work stealing", imb)
	}
}

// TestStaticNoSteals: the same front-loaded work never records a steal
// under the non-stealing policies, Static and Dynamic.
func TestStaticNoSteals(t *testing.T) {
	const n = 400
	for _, kind := range []Kind{Static, Dynamic} {
		for _, depth := range []int{0, 2} {
			if st := runBatches(kind, 4, 8, depth, n, frontLoaded(n)); st.Steals != 0 {
				t.Errorf("%v depth %d recorded %d steals", kind, depth, st.Steals)
			}
		}
	}
}

// TestCloseWaitsForWorkers: Close drains the queue and returns only after
// every worker has finished its last item and exited.
func TestCloseWaitsForWorkers(t *testing.T) {
	for _, kind := range allKinds() {
		gate := make(chan struct{})
		var finished atomic.Int64
		p := NewPool(kind, 3, 6, nil, nil, func(int, int) int {
			<-gate
			finished.Add(1)
			return 1
		})
		for i := 0; i < 6; i++ {
			p.Push(i, i)
		}
		closed := make(chan struct{})
		go func() {
			p.Close()
			close(closed)
		}()
		select {
		case <-closed:
			t.Fatalf("%v: Close returned while workers were blocked", kind)
		case <-time.After(20 * time.Millisecond):
		}
		close(gate)
		<-closed
		if got := finished.Load(); got != 6 {
			t.Errorf("%v: Close returned after %d of 6 items", kind, got)
		}
		if p.Push(0, 0) {
			t.Errorf("%v: push accepted after Close", kind)
		}
	}
}

// TestAbortUnblocksPush: a producer blocked on a full queue is released by
// Abort, and the queued item is dropped instead of run.
func TestAbortUnblocksPush(t *testing.T) {
	for _, kind := range allKinds() {
		gate := make(chan struct{})
		claimed := make(chan int, 2)
		p := NewPool(kind, 1, 1, nil, nil, func(_, v int) int {
			claimed <- v
			<-gate
			return 1
		})
		p.Push(0, 1)
		<-claimed // the worker holds item 1; the queue is empty again
		p.Push(0, 2)
		pushed := make(chan bool)
		go func() { pushed <- p.Push(0, 3) }()
		select {
		case <-pushed:
			t.Fatalf("%v: push into a full queue did not block", kind)
		case <-time.After(20 * time.Millisecond):
		}
		p.Abort()
		select {
		case ok := <-pushed:
			if ok {
				t.Errorf("%v: blocked push succeeded after Abort", kind)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v: Abort left the push blocked", kind)
		}
		close(gate)
		p.Close()
		close(claimed)
		for v := range claimed {
			t.Errorf("%v: item %d ran after Abort", kind, v)
		}
	}
}

// TestTakeZeroesVacatedSlot: a claimed item must not stay reachable from
// the queue's backing array, or a long-lived Session keeps finished
// requests' records and results alive.
func TestTakeZeroesVacatedSlot(t *testing.T) {
	for _, kind := range allKinds() {
		q := newClaimQueue[*int](kind, 2, 4)
		a, b := new(int), new(int)
		q.push(1, a)
		q.push(1, b)
		slot := 0
		if kind != Dynamic {
			slot = 1
		}
		backing := q.queues[slot][:2]
		w := 1
		if kind == WorkStealing {
			w = 0 // claim by stealing
		}
		v, _, ok := q.pop(w)
		if !ok || v != a {
			t.Fatalf("%v: pop = %p, %v; want %p", kind, v, ok, a)
		}
		if backing[0] != nil {
			t.Errorf("%v: vacated element still holds the claimed item", kind)
		}
		if backing[1] != b {
			t.Errorf("%v: unclaimed item disturbed", kind)
		}
	}
}

func TestParseKind(t *testing.T) {
	cases := map[string]Kind{
		"dynamic": Dynamic, "openmp-dynamic": Dynamic, "omp": Dynamic,
		"work-stealing": WorkStealing, "ws": WorkStealing, "steal": WorkStealing,
		"static": Static,
	}
	for s, want := range cases {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("bogus kind accepted")
	}
}

func TestKindString(t *testing.T) {
	for _, k := range allKinds() {
		if k.String() == "" {
			t.Errorf("empty String for kind %d", int(k))
		}
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Errorf("round trip failed for %v", k)
		}
	}
}

func TestImbalance(t *testing.T) {
	s := Stats{Processed: []int64{10, 10, 10, 10}}
	if got := s.Imbalance(); got != 1 {
		t.Errorf("balanced imbalance = %f", got)
	}
	s = Stats{Processed: []int64{40, 0, 0, 0}}
	if got := s.Imbalance(); got != 4 {
		t.Errorf("skewed imbalance = %f, want 4", got)
	}
	if (Stats{}).Imbalance() != 1 {
		t.Error("empty stats imbalance != 1")
	}
}

func TestConcurrentWorkersActuallyParallel(t *testing.T) {
	// With 4 threads and sleep-heavy items, wall time must be well under the
	// serial sum.
	const n = 40
	const itemDelay = 2 * time.Millisecond
	var mu sync.Mutex
	seen := map[int]bool{}
	start := time.Now()
	runBatches(Dynamic, 4, 1, 0, n, func(worker, _, _ int) {
		time.Sleep(itemDelay)
		mu.Lock()
		seen[worker] = true
		mu.Unlock()
	})
	elapsed := time.Since(start)
	if serial := time.Duration(n) * itemDelay; elapsed > serial*3/4 {
		t.Errorf("elapsed %v suggests no parallelism (serial would be %v)", elapsed, serial)
	}
	if len(seen) < 2 {
		t.Errorf("only %d workers participated", len(seen))
	}
}

func BenchmarkDynamicOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runBatches(Dynamic, 4, 64, 0, 10000, func(int, int, int) {})
	}
}

func BenchmarkWorkStealingOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runBatches(WorkStealing, 4, 64, 0, 10000, func(int, int, int) {})
	}
}
