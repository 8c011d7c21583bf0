// Package pipeline is the streaming mapping pipeline: a bounded ingest
// stage reads captured records incrementally, a long-lived worker pool maps
// them batch by batch through a shared core.Mapper (each batch with a fresh
// CachedGBWT, as Giraffe rebuilds its cache per batch, so the §VII-B
// capacity parameter keeps its meaning), and an order-preserving emit stage
// writes results as batches complete. The stages overlap — ingest I/O hides
// behind mapping, mapping behind emit — and every hand-off is bounded, so
// memory is governed by the in-flight window (Depth × BatchSize records)
// instead of the workload size. Emit replays batches in ingest order, which
// keeps the CSV output byte-identical to the batch proxy's.
package pipeline

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/extend"
	"repro/internal/gbwt"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options configures a streaming run.
type Options struct {
	// Workers is the persistent map-worker count; ≤0 means GOMAXPROCS.
	Workers int
	// BatchSize is the records per in-flight batch; ≤0 means the scheduler
	// default (512, as in Giraffe).
	BatchSize int
	// Depth is the maximum number of batches queued for mapping (the
	// backpressure bound); ≤0 means 2×Workers.
	Depth int
	// Scheduler selects how workers claim queued batches.
	Scheduler sched.Kind
}

func (o Options) normalize() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.BatchSize <= 0 {
		o.BatchSize = sched.DefaultBatchSize
	}
	if o.Depth <= 0 {
		o.Depth = 2 * o.Workers
	}
	return o
}

// Source yields records incrementally; Next returns io.EOF after the last
// one. *seeds.Reader (and seeds.File) satisfy it directly, as does
// giraffe.ExtractSource, which extracts records from FASTQ on the fly
// instead of reading a capture file.
type Source interface {
	Next() (*seeds.ReadSeeds, error)
}

// SliceSource streams an in-memory workload.
type SliceSource struct {
	recs []seeds.ReadSeeds
	i    int
}

// NewSliceSource wraps already-loaded records.
func NewSliceSource(recs []seeds.ReadSeeds) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (*seeds.ReadSeeds, error) {
	if s.i >= len(s.recs) {
		return nil, io.EOF
	}
	r := &s.recs[s.i]
	s.i++
	return r, nil
}

// Emitter consumes mapped records. Emit is called from a single goroutine,
// in workload order.
type Emitter interface {
	Emit(rec *seeds.ReadSeeds, exts []extend.Extension) error
}

// CSVEmitter writes the proxy's CSV format, byte-identical to
// core.WriteCSV over the same workload.
type CSVEmitter struct {
	bw  *bufio.Writer
	buf []byte // one record's rows, reused across records
}

// NewCSVEmitter writes the header and returns the emitter. Call Flush when
// the run completes.
func NewCSVEmitter(w io.Writer) (*CSVEmitter, error) {
	bw := bufio.NewWriter(w)
	if err := core.WriteCSVHeader(bw); err != nil {
		return nil, err
	}
	return &CSVEmitter{bw: bw}, nil
}

// Emit implements Emitter.
func (e *CSVEmitter) Emit(rec *seeds.ReadSeeds, exts []extend.Extension) error {
	e.buf = core.AppendCSVRecord(e.buf[:0], rec, exts)
	_, err := e.bw.Write(e.buf)
	return err
}

// Flush drains the buffered output.
func (e *CSVEmitter) Flush() error { return e.bw.Flush() }

// Stats reports a completed streaming run.
type Stats struct {
	// Reads and Batches count what flowed through the pipeline.
	Reads   int
	Batches int
	// Sched reports per-worker records processed and steals, as the batch
	// scheduler does.
	Sched sched.Stats
	// Cache aggregates every batch's CachedGBWT statistics.
	Cache gbwt.CacheStats
	// BatchLatency summarises per-batch ingest→emit latency in seconds.
	BatchLatency stats.Online
	// MapLatency summarises per-batch time in the map stage in seconds.
	MapLatency stats.Online
	// IngestLatency summarises per-batch time in the ingest stage in
	// seconds: what the source spent producing the batch's records. For a
	// captured-seed file that is decode I/O; for a streaming extraction
	// source (giraffe.ExtractSource) it includes minimizer lookup and seed
	// creation, which is what lets cmd/benchreport compare
	// streamed-from-FASTQ against captured-file ingest cost directly.
	IngestLatency stats.Online
	// Makespan is the end-to-end wall time of the streaming run.
	Makespan time.Duration
}

// Throughput returns reads per second over the makespan; zero (not NaN or
// Inf) when the makespan is zero, so JSON consumers never see a non-finite
// rate.
func (s *Stats) Throughput() float64 {
	return obs.Rate(float64(s.Reads), s.Makespan)
}

// batch is one in-flight unit of work.
type batch struct {
	seq        int // ingest order; emit replays in this order
	base       int // global index of recs[0] in the workload
	recs       []seeds.ReadSeeds
	exts       [][]extend.Extension
	ingested   time.Time
	ingestSecs float64
	mapSecs    float64
}

// Run streams records from src through m's mapping kernels into emit. The
// worker pool persists across batches; per-batch CachedGBWT discipline is
// preserved by core.Mapper.MapBatch. Results are emitted in input order.
//
// Trace spans (when the mapper was built with a trace recorder) tag map
// workers 0..Workers-1, the ingest stage as worker Workers, and the emit
// stage as worker Workers+1; the recorder is grown as needed.
func Run(m *core.Mapper, src Source, emit Emitter, opts Options) (*Stats, error) {
	if m == nil {
		return nil, errors.New("pipeline: nil mapper")
	}
	if src == nil {
		return nil, errors.New("pipeline: nil source")
	}
	if emit == nil {
		return nil, errors.New("pipeline: nil emitter")
	}
	opts = opts.normalize()
	if opts.Workers != 1 {
		// Hardware-counter probes are single-threaded instruments.
		m = m.WithoutProbe()
	}
	rec := m.Options().Trace
	if rec != nil {
		rec.Grow(opts.Workers + 2)
	}
	// Observability handles. A nil registry yields nil handles whose methods
	// are no-ops, so the stage code below records unconditionally. The stage
	// timing itself is free: the pipeline already measures per-batch
	// ingest/map durations for Stats regardless of observability.
	// Single-writer stages use the same shard indices as their trace rows:
	// ingest = Workers, emit = Workers+1 (the registry clamps out-of-range
	// shards to 0, which stays correct — just shared — if it was sized
	// smaller).
	reg := m.Options().Obs
	// The first Workers shards are map workers: scrapes derive the claim
	// imbalance and steal-share gauges over exactly that population (the
	// ingest/emit shards below never claim batches).
	reg.SetWorkerShards(opts.Workers)
	ingestShard, emitShard := opts.Workers, opts.Workers+1
	mReads := reg.Counter(obs.MetricPipelineReads)
	mBatches := reg.Counter(obs.MetricPipelineBatches)
	mInFlight := reg.Gauge(obs.MetricPipelineInFlight)
	hIngest := reg.Histogram(obs.MetricStageIngest)
	hMap := reg.Histogram(obs.MetricStageMap)
	hEmit := reg.Histogram(obs.MetricStageEmit)
	hBatch := reg.Histogram(obs.MetricBatchLatency)
	mClaims := reg.Counter(obs.MetricSchedClaims)
	mSteals := reg.Counter(obs.MetricSchedSteals)
	// pprof label contexts, prebuilt once per run: stage goroutines label
	// themselves at batch boundaries (never per record) so a -profile
	// capture decomposes by stage and worker at zero cost to the hot path.
	labels := obs.NewProfLabels(obs.ClassBatch, opts.Workers)

	st := &Stats{Sched: sched.Stats{Processed: make([]int64, opts.Workers)}}
	cacheStats := make([]gbwt.CacheStats, opts.Workers)
	cq := newClaimQueue[*batch](opts.Scheduler, opts.Workers, opts.Depth)
	done := make(chan *batch, opts.Depth)
	abortCh := make(chan struct{})
	var failOnce sync.Once
	var firstErr error
	fail := func(err error) {
		failOnce.Do(func() {
			firstErr = err
			close(abortCh)
			cq.abort()
		})
	}
	aborted := func() bool {
		select {
		case <-abortCh:
			return true
		default:
			return false
		}
	}

	start := time.Now()

	// Ingest: read bounded batches from the source; push blocks when the
	// in-flight window is full, which is what bounds memory.
	go func() {
		defer cq.close()
		labels.ApplyIngest()
		seq, base := 0, 0
		for {
			t0 := time.Now()
			recs, err := readBatch(src, opts.BatchSize)
			d := time.Since(t0)
			if rec != nil {
				rec.Record(ingestShard, trace.RegionIngest, t0, d)
			}
			hIngest.Observe(ingestShard, d)
			if err != nil && err != io.EOF {
				fail(fmt.Errorf("pipeline: ingest: %w", err))
				return
			}
			if len(recs) > 0 {
				b := &batch{
					seq:        seq,
					base:       base,
					recs:       recs,
					exts:       make([][]extend.Extension, len(recs)),
					ingested:   time.Now(),
					ingestSecs: d.Seconds(),
				}
				if !cq.push(b.seq, b) {
					return
				}
				mInFlight.Add(ingestShard, 1)
				seq++
				base += len(recs)
			}
			if err == io.EOF {
				return
			}
		}
	}()

	// Map: the persistent worker pool claims batches under the scheduling
	// policy and hands completed batches to emit.
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			labels.ApplyMap(worker)
			for {
				b, stolen, ok := cq.pop(worker)
				if !ok {
					return
				}
				mClaims.Inc(worker)
				if stolen {
					atomic.AddInt64(&st.Sched.Steals, 1)
					mSteals.Inc(worker)
				}
				t0 := time.Now()
				cacheStats[worker].Add(m.MapBatch(worker, b.recs, b.base, b.exts))
				// Batch boundary: tick the shared-cache epoch clock (no-op
				// unless the mapper runs the epoch discipline).
				m.TryPublishEpoch(worker)
				d := time.Since(t0)
				b.mapSecs = d.Seconds()
				if rec != nil {
					rec.Record(worker, trace.RegionMapBatch, t0, d)
				}
				hMap.Observe(worker, d)
				atomic.AddInt64(&st.Sched.Processed[worker], int64(len(b.recs)))
				select {
				case done <- b:
				case <-abortCh:
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// Emit (in the caller's goroutine): reorder completed batches back into
	// ingest order and write them out. Out-of-order completions wait in
	// `pending`, which the in-flight bound keeps small.
	// Emit runs on the caller's goroutine, so its label is cleared on the way
	// out rather than left to leak into whatever the caller does next.
	labels.ApplyEmit()
	defer labels.Clear()
	next := 0
	pending := make(map[int]*batch)
	for b := range done {
		pending[b.seq] = b
		for {
			nb, ready := pending[next]
			if !ready {
				break
			}
			delete(pending, next)
			next++
			st.Batches++
			st.Reads += len(nb.recs)
			st.MapLatency.Add(nb.mapSecs)
			st.IngestLatency.Add(nb.ingestSecs)
			mInFlight.Add(emitShard, -1)
			mBatches.Inc(emitShard)
			mReads.Add(emitShard, int64(len(nb.recs)))
			if aborted() {
				continue // drain without emitting
			}
			t0 := time.Now()
			err := emitBatch(emit, nb)
			d := time.Since(t0)
			if rec != nil {
				rec.Record(emitShard, trace.RegionEmit, t0, d)
			}
			hEmit.Observe(emitShard, d)
			if err != nil {
				fail(fmt.Errorf("pipeline: emit: %w", err))
				continue
			}
			lat := time.Since(nb.ingested)
			st.BatchLatency.Add(lat.Seconds())
			hBatch.Observe(emitShard, lat)
		}
	}
	st.Makespan = time.Since(start)
	for _, cs := range cacheStats {
		st.Cache.Add(cs)
	}
	if aborted() {
		return nil, firstErr
	}
	return st, nil
}

// RunToCSV streams src through m and writes the CSV output — byte-identical
// to batch-mode core.WriteCSV over the same workload — to w.
func RunToCSV(m *core.Mapper, src Source, w io.Writer, opts Options) (*Stats, error) {
	e, err := NewCSVEmitter(w)
	if err != nil {
		return nil, err
	}
	st, err := Run(m, src, e, opts)
	if err != nil {
		return nil, err
	}
	if err := e.Flush(); err != nil {
		return nil, err
	}
	return st, nil
}

// readBatch pulls up to n records; it returns io.EOF (possibly with a final
// short batch) at end of stream.
func readBatch(src Source, n int) ([]seeds.ReadSeeds, error) {
	out := make([]seeds.ReadSeeds, 0, n)
	for len(out) < n {
		r, err := src.Next()
		if err != nil {
			return out, err
		}
		out = append(out, *r)
	}
	return out, nil
}

func emitBatch(emit Emitter, b *batch) error {
	for j := range b.recs {
		if err := emit.Emit(&b.recs[j], b.exts[j]); err != nil {
			return err
		}
	}
	return nil
}
