package pipeline

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/extend"
	"repro/internal/gbwt"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/seeds"
)

// Submission errors. ErrQueueFull is the admission-control signal: the
// request never entered the queue, so the caller can reject it cheaply
// (HTTP 429) instead of queueing unboundedly.
var (
	ErrQueueFull     = errors.New("pipeline: session queue full")
	ErrSessionClosed = errors.New("pipeline: session closed")
)

// BatchMapper is the mapping engine a Session drives — the cancellable
// batch kernel of core.Mapper plus its batch-boundary epoch tick,
// abstracted so tests can substitute a controllable fake. *core.Mapper
// satisfies it; its TryPublishEpoch is a no-op unless the epoch cache is
// enabled.
type BatchMapper interface {
	MapBatchUntil(worker int, recs []seeds.ReadSeeds, base int, out [][]extend.Extension, stop *atomic.Bool, sb *obs.SubBatch) (gbwt.CacheStats, int)
	TryPublishEpoch(worker int) bool
}

// Session is the reusable submit API over the streaming pipeline's worker
// pool: where Run drains one source and exits, a Session keeps the pool and
// the loaded substrate hot and maps request after request — the serving
// building block behind cmd/giraffed.
//
// Each Submit is split into sub-batches of Options.BatchSize (preserving the
// per-batch CachedGBWT discipline, §VII-B) which enter the same worker pool
// and bounded claim queue (package sched) the streaming pipeline uses,
// under the same scheduling policies. Admission is all-or-nothing and
// non-blocking: a request whose sub-batches would overflow Options.Depth is
// rejected with ErrQueueFull before any of them queue. Request contexts
// cancel in-flight work: a deadline that fires while sub-batches are queued
// skips them entirely, and one that fires while a worker is mapping stops
// the kernel at the next record boundary (core.Mapper.MapBatchUntil).
type Session struct {
	m    BatchMapper
	opts Options
	pool *sched.Pool[*sjob]

	closed    atomic.Bool
	nextIndex atomic.Int64 // global read index: slow-exemplar attribution

	mu    sync.Mutex
	cache gbwt.CacheStats

	// Metric handles are nil-safe no-ops when reg is nil.
	submitShard   int
	qDepth        *obs.Gauge
	inFlight      *obs.Gauge
	requests      *obs.Counter
	reads         *obs.Counter
	queueRejects  *obs.Counter
	canceled      *obs.Counter
	canceledReads *obs.Counter
	pipeReads     *obs.Counter
	pipeBatches   *obs.Counter
	hService      *obs.Histogram
	hQueueWait    *obs.Histogram
	hMap          *obs.Histogram
}

// sjob is one queued sub-batch of a submitted request.
type sjob struct {
	req  *srequest
	recs []seeds.ReadSeeds
	out  [][]extend.Extension // disjoint window into the request's results
	base int                  // global read index of recs[0]
	enq  time.Time
	// tr is the request's trace (nil when the caller is untraced); sb is
	// this sub-batch's kernel attribution, passed into MapBatchUntil.
	tr *obs.ReqTrace
	sb obs.SubBatch
}

// srequest is the shared completion state of one Submit.
type srequest struct {
	stop      atomic.Bool // request context done: skip / stop mapping
	remaining atomic.Int64
	mapped    atomic.Int64
	done      chan struct{}
}

// NewSession starts the persistent worker pool. reg may be nil (no
// metrics); when set, the session records the request-scoped serving
// metrics plus the same pipeline/scheduler counters the streaming pipeline
// does, so /progress, the flight recorder, and cmd/obsdiff work unchanged
// on serving runs.
func NewSession(m BatchMapper, opts Options, reg *obs.Registry) (*Session, error) {
	if m == nil {
		return nil, errors.New("pipeline: nil mapper")
	}
	opts = opts.normalize()
	s := &Session{
		m:    m,
		opts: opts,

		submitShard:   opts.Workers,
		qDepth:        reg.Gauge(obs.MetricServeQueueDepth),
		inFlight:      reg.Gauge(obs.MetricServeInFlight),
		requests:      reg.Counter(obs.MetricServeRequests),
		reads:         reg.Counter(obs.MetricServeReads),
		queueRejects:  reg.Counter(obs.MetricServeQueueRejects),
		canceled:      reg.Counter(obs.MetricServeCanceled),
		canceledReads: reg.Counter(obs.MetricServeCanceledReads),
		pipeReads:     reg.Counter(obs.MetricPipelineReads),
		pipeBatches:   reg.Counter(obs.MetricPipelineBatches),
		hService:      reg.Histogram(obs.MetricServeServiceLatency),
		hQueueWait:    reg.Histogram(obs.MetricServeQueueWait),
		hMap:          reg.Histogram(obs.MetricStageMap),
	}
	// The serving-class pprof labels split a -profile capture's map time
	// between the serving path and batch runs.
	s.pool = sched.NewPool(opts.Scheduler, opts.Workers, opts.Depth, reg,
		obs.NewProfLabels(obs.ClassServe, opts.Workers), s.work)
	return s, nil
}

// Options returns the session's normalized options (Depth is the admission
// bound in sub-batches).
func (s *Session) Options() Options { return s.opts }

// Submit maps recs and returns one extension set per record, in request
// order. It blocks until the request completes or ctx is done; admission is
// immediate (ErrQueueFull, no partial queueing). On a context error the
// results are discarded: queued sub-batches are skipped and the in-flight
// one stops at the next record boundary, both visible in the
// serve_canceled_* counters.
func (s *Session) Submit(ctx context.Context, recs []seeds.ReadSeeds) ([][]extend.Extension, error) {
	return s.SubmitTraced(ctx, recs, nil)
}

// SubmitTraced is Submit with request-trace attribution: every sub-batch the
// request spawns records queue_wait and map_subbatch spans (cancel markers
// for skipped ones) into rt, worker-attributed and carrying the kernel nanos
// MapBatchUntil accumulates, and the request's trace ID rides into the
// slow-read exemplars. A nil rt is exactly Submit.
func (s *Session) SubmitTraced(ctx context.Context, recs []seeds.ReadSeeds, rt *obs.ReqTrace) ([][]extend.Extension, error) {
	if s.closed.Load() {
		return nil, ErrSessionClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]extend.Extension, len(recs))
	if len(recs) == 0 {
		return out, nil
	}
	bs := s.opts.BatchSize
	njobs := (len(recs) + bs - 1) / bs
	req := &srequest{done: make(chan struct{})}
	req.remaining.Store(int64(njobs))
	base := int(s.nextIndex.Add(int64(len(recs)))) - len(recs)
	now := time.Now()
	jobs := make([]*sjob, 0, njobs)
	for lo := 0; lo < len(recs); lo += bs {
		hi := lo + bs
		if hi > len(recs) {
			hi = len(recs)
		}
		j := &sjob{
			req: req, recs: recs[lo:hi], out: out[lo:hi], base: base + lo, enq: now,
		}
		if rt != nil {
			j.tr = rt
			j.sb.Trace = rt.ID()
		}
		jobs = append(jobs, j)
	}
	// The stop flag, not ctx itself, is what workers poll: one atomic load
	// per record instead of a mutex-guarded ctx.Err.
	release := context.AfterFunc(ctx, func() { req.stop.Store(true) })
	defer release()

	if !s.pool.TryPushAll(jobs) {
		if s.closed.Load() {
			return nil, ErrSessionClosed
		}
		s.queueRejects.Inc(s.submitShard)
		return nil, ErrQueueFull
	}
	s.qDepth.Add(s.submitShard, int64(njobs))
	s.inFlight.Add(s.submitShard, 1)
	s.requests.Inc(s.submitShard)
	defer s.inFlight.Add(s.submitShard, -1)

	select {
	case <-req.done:
		s.hService.Observe(s.submitShard, time.Since(now))
		if int(req.mapped.Load()) != len(recs) {
			// The deadline fired mid-request; every record either mapped or
			// was skipped, but the result set is incomplete.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, context.Canceled
		}
		s.reads.Add(s.submitShard, int64(len(recs)))
		return out, nil
	case <-ctx.Done():
		// Workers finish or skip the remaining sub-batches on their own;
		// the request state keeps the result slices alive until then.
		s.hService.Observe(s.submitShard, time.Since(now))
		return nil, ctx.Err()
	}
}

// work runs one claimed sub-batch on worker w: map it (unless the request
// is already dead), account, and signal completion. It returns the records
// mapped.
func (s *Session) work(w int, j *sjob) (n int) {
	s.qDepth.Add(w, -1)
	// The queue-wait span and the serve_queue_wait_seconds histogram see
	// the same duration value, so sampled traces and the metric agree
	// exactly on where queueing time went.
	qw := time.Since(j.enq)
	s.hQueueWait.Observe(w, qw)
	j.tr.AddSpan(obs.SpanQueueWait, w, j.enq, qw)
	if j.req.stop.Load() {
		s.canceled.Inc(w)
		s.canceledReads.Add(w, int64(len(j.recs)))
		j.tr.AddSpan(obs.SpanCancel, w, j.enq.Add(qw), 0)
	} else {
		t0 := time.Now()
		var cs gbwt.CacheStats
		cs, n = s.m.MapBatchUntil(w, j.recs, j.base, j.out, &j.req.stop, jobSubBatch(j))
		// Sub-batch boundary: tick the shared-cache epoch clock so the
		// serving path republishes on the same cadence as the batch
		// pipeline (no-op when the mapper has no epoch cache).
		s.m.TryPublishEpoch(w)
		j.req.mapped.Add(int64(n))
		s.pipeReads.Add(w, int64(n))
		s.pipeBatches.Inc(w)
		dMap := time.Since(t0)
		s.hMap.Observe(w, dMap)
		partial := n < len(j.recs)
		j.tr.AddMapSpan(w, t0, dMap, jobSubBatch(j), partial)
		if partial {
			s.canceled.Inc(w)
			s.canceledReads.Add(w, int64(len(j.recs)-n))
		}
		s.mu.Lock()
		s.cache.Add(cs)
		s.mu.Unlock()
	}
	if j.req.remaining.Add(-1) == 0 {
		close(j.req.done)
	}
	return n
}

// jobSubBatch returns the job's kernel-attribution slot, nil for untraced
// requests so the mapper keeps its nil fast path.
func jobSubBatch(j *sjob) *obs.SubBatch {
	if j.tr == nil {
		return nil
	}
	return &j.sb
}

// Close drains the session: new Submits fail with ErrSessionClosed,
// already-admitted requests run to completion, and Close returns when the
// last worker has exited. Idempotent.
func (s *Session) Close() {
	s.closed.Store(true)
	s.pool.Close()
}

// CacheStats returns the aggregated per-batch CachedGBWT statistics across
// every request mapped so far.
func (s *Session) CacheStats() gbwt.CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache
}
