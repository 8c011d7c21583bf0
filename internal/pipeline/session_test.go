package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/extend"
	"repro/internal/gbwt"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/vgraph"
)

// fakeMapper is a controllable BatchMapper: each record "maps" to a single
// extension whose node encodes the record's global index, after an optional
// per-record delay, honouring the stop flag exactly as core.Mapper does. An
// optional gate blocks the first record of every batch until released, which
// lets tests fill the queue deterministically.
type fakeMapper struct {
	delay  time.Duration
	gate   chan struct{} // nil: never blocks
	mapped atomic.Int64
}

func (f *fakeMapper) MapBatchUntil(worker int, recs []seeds.ReadSeeds, base int, out [][]extend.Extension, stop *atomic.Bool, sb *obs.SubBatch) (gbwt.CacheStats, int) {
	if f.gate != nil {
		<-f.gate
	}
	mapped := 0
	for j := range recs {
		if stop != nil && stop.Load() {
			break
		}
		if f.delay > 0 {
			time.Sleep(f.delay)
		}
		out[j] = []extend.Extension{{StartPos: vgraph.Position{Node: vgraph.NodeID(base + j)}}}
		f.mapped.Add(1)
		mapped++
	}
	return gbwt.CacheStats{}, mapped
}

// TryPublishEpoch implements BatchMapper; the fake has no epoch cache.
func (f *fakeMapper) TryPublishEpoch(int) bool { return false }

func mkRecs(n int) []seeds.ReadSeeds {
	recs := make([]seeds.ReadSeeds, n)
	for i := range recs {
		recs[i].Read.Name = fmt.Sprintf("r%d", i)
	}
	return recs
}

// TestSessionQueueFull covers admission control: a session whose workers are
// blocked and whose queue is full must reject further submissions with
// ErrQueueFull without queueing any of their sub-batches, and count the
// rejection.
func TestSessionQueueFull(t *testing.T) {
	for _, tc := range []struct {
		name          string
		depth, reads  int // submission size in reads, batch size 4
		fills, accept int // how many 1-batch fillers fit, then the verdict size
	}{
		{"single-batch overflow", 2, 4, 2, 4},
		{"multi-batch all-or-nothing", 3, 4, 2, 8}, // 1 slot left, needs 2
	} {
		t.Run(tc.name, func(t *testing.T) {
			fm := &fakeMapper{gate: make(chan struct{})}
			reg := obs.NewRegistry(2)
			s, err := pipeline.NewSession(fm, pipeline.Options{
				Workers: 1, BatchSize: 4, Depth: tc.depth, Scheduler: sched.Dynamic,
			}, reg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			// One submission parks on the (gated) worker, then fillers pack
			// the queue to its depth bound.
			var wg sync.WaitGroup
			submit := func(n int) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s.Submit(context.Background(), mkRecs(n)) //nolint:errcheck
				}()
			}
			submit(tc.reads)
			// Wait until the worker has claimed the parked batch, so the
			// fillers below land in the queue, not on the worker.
			waitFor(t, func() bool {
				return reg.Counter(obs.MetricSchedClaims).Value() == 1
			})
			for i := 0; i < tc.fills; i++ {
				submit(tc.reads)
			}
			waitFor(t, func() bool {
				return reg.Gauge(obs.MetricServeQueueDepth).Value() >= int64(tc.fills)
			})

			_, err = s.Submit(context.Background(), mkRecs(tc.accept))
			if !errors.Is(err, pipeline.ErrQueueFull) {
				t.Fatalf("Submit over a full queue: %v, want ErrQueueFull", err)
			}
			if got := reg.Counter(obs.MetricServeQueueRejects).Value(); got != 1 {
				t.Errorf("serve_queue_rejects_total = %d, want 1", got)
			}
			close(fm.gate)
			wg.Wait()
		})
	}
}

// TestSessionDeadlineCancelsWork covers request deadlines: an expired
// deadline must surface as context.DeadlineExceeded, stop the mapper before
// it processes the whole request, and account the skipped work in the
// serve_canceled_* counters.
func TestSessionDeadlineCancelsWork(t *testing.T) {
	fm := &fakeMapper{delay: 2 * time.Millisecond}
	reg := obs.NewRegistry(2)
	s, err := pipeline.NewSession(fm, pipeline.Options{
		Workers: 1, BatchSize: 8, Depth: 64, Scheduler: sched.Dynamic,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const reads = 256 // ≥512ms of mapper work against a 20ms deadline
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = s.Submit(ctx, mkRecs(reads))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit past deadline: %v, want DeadlineExceeded", err)
	}
	// The worker drains the corpse asynchronously; wait for the last
	// sub-batch to be skipped or stopped.
	waitFor(t, func() bool {
		snap := reg.Snapshot()
		return snap.Counters[obs.MetricServeCanceledReads] > 0 &&
			snap.Gauges[obs.MetricServeQueueDepth] == 0
	})
	if got := fm.mapped.Load(); got >= reads {
		t.Errorf("mapper processed all %d reads despite the deadline", got)
	}
	snap := reg.Snapshot()
	canceled := snap.Counters[obs.MetricServeCanceledReads]
	if canceled+fm.mapped.Load() != reads {
		t.Errorf("canceled (%d) + mapped (%d) != submitted (%d)",
			canceled, fm.mapped.Load(), reads)
	}
	if snap.Counters[obs.MetricServeCanceled] == 0 {
		t.Error("serve_canceled_batches_total = 0, want > 0")
	}
}

// TestSessionOrderedResultsConcurrent covers result ordering: many
// concurrent clients submit interleaved requests through a multi-worker
// session under every scheduling policy, and each client's results must
// line up with its own request order.
func TestSessionOrderedResultsConcurrent(t *testing.T) {
	for _, kind := range []sched.Kind{sched.Dynamic, sched.WorkStealing, sched.Static} {
		t.Run(kind.String(), func(t *testing.T) {
			fm := &fakeMapper{}
			s, err := pipeline.NewSession(fm, pipeline.Options{
				Workers: 4, BatchSize: 3, Depth: 512, Scheduler: kind,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			const clients, perClient, reads = 8, 20, 10
			var wg sync.WaitGroup
			errCh := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < perClient; r++ {
						out, err := s.Submit(context.Background(), mkRecs(reads))
						if err != nil {
							errCh <- err
							return
						}
						if len(out) != reads {
							errCh <- fmt.Errorf("%d results for %d reads", len(out), reads)
							return
						}
						// The fake encodes the session-global record index:
						// within one request the indices must be contiguous
						// and ascending, i.e. results are in request order.
						first := int(out[0][0].StartPos.Node)
						for i := range out {
							if got := int(out[i][0].StartPos.Node); got != first+i {
								errCh <- fmt.Errorf("result %d out of order: node %d, want %d", i, got, first+i)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
		})
	}
}

// TestSessionClose covers drain: Close completes admitted work, then new
// submissions fail fast with ErrSessionClosed.
func TestSessionClose(t *testing.T) {
	fm := &fakeMapper{}
	s, err := pipeline.NewSession(fm, pipeline.Options{Workers: 2, BatchSize: 4, Depth: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), mkRecs(10)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Submit(context.Background(), mkRecs(1)); !errors.Is(err, pipeline.ErrSessionClosed) {
		t.Fatalf("Submit after Close: %v, want ErrSessionClosed", err)
	}
	s.Close() // idempotent
	if got := fm.mapped.Load(); got != 10 {
		t.Errorf("mapped %d reads, want 10", got)
	}
}

// TestSessionRealMapper exercises the session against the real core.Mapper
// on a generated workload and checks the results match the batch proxy's.
func TestSessionRealMapper(t *testing.T) {
	f, recs := fixture(t, 0.05)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(f, recs, core.Options{Threads: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := pipeline.NewSession(m, pipeline.Options{Workers: 2, BatchSize: 8, Depth: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	out, err := s.Submit(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if len(out[i]) != len(want.Extensions[i]) {
			t.Fatalf("record %d: %d extensions, want %d", i, len(out[i]), len(want.Extensions[i]))
		}
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
