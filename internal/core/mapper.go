package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/distindex"
	"repro/internal/extend"
	"repro/internal/gbwt"
	"repro/internal/gbz"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/trace"
)

// mapperMetrics caches the obs handles the mapping kernels record into.
// All handles are nil when observability is off; the handle methods are
// nil-safe no-ops, so the kernels carry no configuration branches beyond
// the single instr check that gates the time.Now calls.
type mapperMetrics struct {
	cluster    *obs.Histogram
	threshold  *obs.Histogram
	cacheBuild *obs.Histogram

	// Epoch-cache instrumentation: the off-path publication cost and the
	// read-side hit split (shared snapshot vs private overflow vs decode).
	cacheBuildShared *obs.Histogram
	epochPublishes   *obs.Counter
	epochResident    *obs.Gauge
	epochShared      *obs.Counter
	epochPrivate     *obs.Counter
	epochDecode      *obs.Counter
}

func newMapperMetrics(reg *obs.Registry) mapperMetrics {
	return mapperMetrics{
		cluster:          reg.Histogram(obs.MetricClusterLatency),
		threshold:        reg.Histogram(obs.MetricThresholdLatency),
		cacheBuild:       reg.Histogram(obs.MetricCacheBuild),
		cacheBuildShared: reg.Histogram(obs.MetricCacheBuildShared),
		epochPublishes:   reg.Counter(obs.MetricEpochPublishes),
		epochResident:    reg.Gauge(obs.MetricEpochResident),
		epochShared:      reg.Counter(obs.MetricEpochSharedHits),
		epochPrivate:     reg.Counter(obs.MetricEpochPrivateHits),
		epochDecode:      reg.Counter(obs.MetricEpochDecodeMisses),
	}
}

// Mapper is the reusable mapping engine: the prepared query structures
// (distance index plus the bidirectional haplotype index, the expensive part
// of a run's setup) built once and shared by every caller — the batch Run,
// the parent emulator (package giraffe), and the streaming pipeline all map
// records through the same Mapper, which is what keeps their outputs
// identical by construction.
type Mapper struct {
	file *gbz.File
	dist *distindex.Index
	bi   *gbwt.Bidirectional
	opts Options
	met  mapperMetrics
	slow *obs.SlowReads
	// instr gates the kernel timing calls: true when the trace recorder,
	// the obs registry, or the slow-read reservoir wants per-region
	// durations.
	instr bool

	// shared is the epoch-published shared cache (nil unless
	// Options.EpochCapacity > 0). It is safe for concurrent use: workers
	// read pinned immutable snapshots; publication happens at batch
	// boundaries via TryPublishEpoch.
	shared *gbwt.SharedBiCache
	// pendingShared[row] holds the duration of an epoch publication won by
	// that worker at a batch boundary, picked up (and zeroed) by its next
	// MapBatchUntil so exemplars can attribute the build to the reads that
	// ran behind it.
	pendingShared []atomic.Int64
}

// NewMapper prepares the indexes from a GBZ file: the graph distance index
// and the reverse orientation of the embedded haplotype index, so both
// extension directions are haplotype-constrained.
func NewMapper(f *gbz.File, opts Options) (*Mapper, error) {
	if f == nil || f.Graph == nil || f.Index == nil {
		return nil, errors.New("core: nil GBZ file")
	}
	if f.Graph.NumPaths() == 0 {
		return nil, errors.New("core: GBZ has no embedded haplotype paths")
	}
	paths := make([][]gbwt.NodeID, f.Graph.NumPaths())
	for i := range paths {
		paths[i] = f.Graph.Path(i)
	}
	bi, err := gbwt.FromForward(f.Index, paths)
	if err != nil {
		return nil, err
	}
	return NewMapperFromIndexes(f, distindex.New(f.Graph), bi, opts)
}

// NewMapperFromIndexes wraps indexes that were already built elsewhere
// (e.g. giraffe.BuildIndexes) so the parent emulator and the proxy share one
// mapping engine without rebuilding anything.
func NewMapperFromIndexes(f *gbz.File, dist *distindex.Index, bi *gbwt.Bidirectional, opts Options) (*Mapper, error) {
	if f == nil || f.Graph == nil {
		return nil, errors.New("core: nil GBZ file")
	}
	if dist == nil || bi == nil {
		return nil, errors.New("core: nil index")
	}
	opts = opts.normalize()
	m := &Mapper{
		file:  f,
		dist:  dist,
		bi:    bi,
		opts:  opts,
		met:   newMapperMetrics(opts.Obs),
		slow:  opts.Slow,
		instr: opts.Trace != nil || opts.Obs != nil || opts.Slow != nil,
	}
	if opts.EpochCapacity > 0 {
		// Row count sizes the snapshot's per-worker hit-counter rows and
		// the publication-attribution slots; out-of-range worker indices
		// clamp, so a pipeline with more workers than Threads stays
		// correct (it only shares the last row).
		rows := opts.Threads
		if rows <= 0 {
			rows = defaultThreads()
		}
		m.shared = gbwt.NewSharedBi(bi, gbwt.EpochConfig{
			Capacity: opts.EpochCapacity,
			Workers:  rows,
		})
		m.pendingShared = make([]atomic.Int64, rows)
	}
	return m, nil
}

// EpochEnabled reports whether the mapper runs the epoch-published shared
// cache discipline.
func (m *Mapper) EpochEnabled() bool { return m.shared != nil }

// sharedRow clamps a worker index onto the shared cache's row range.
func (m *Mapper) sharedRow(worker int) int {
	if worker < 0 {
		return 0
	}
	if worker >= len(m.pendingShared) {
		return len(m.pendingShared) - 1
	}
	return worker
}

// TryPublishEpoch is the batch-boundary hook of the epoch discipline:
// every mode's pool worker (batch Run, the streaming pipeline, the
// serving session) invokes it after finishing a batch, off the
// record-mapping hot path. It ticks the epoch clock, and — when this call
// wins the CAS-elected publication — rebuilds both directions' snapshots
// from the accumulated access-frequency feedback, records the build cost,
// and leaves the duration for this worker's next batch to attribute in its
// exemplars. Returns whether this call published. No-op (false) when the
// epoch cache is off.
func (m *Mapper) TryPublishEpoch(worker int) bool {
	if m.shared == nil {
		return false
	}
	d, ok := m.shared.MaybePublish()
	if !ok {
		return false
	}
	row := m.sharedRow(worker)
	m.pendingShared[row].Store(int64(d))
	m.met.cacheBuildShared.Observe(row, d)
	m.met.epochPublishes.Inc(row)
	m.met.epochResident.Set(row, int64(m.shared.Resident()))
	return true
}

// Options returns the mapper's normalized run options.
func (m *Mapper) Options() Options { return m.opts }

// WithoutProbe returns a mapper that maps without the hardware-counter
// probe. Probes are single-threaded instruments; concurrent consumers (the
// streaming pipeline, multi-threaded Run) must drop them.
func (m *Mapper) WithoutProbe() *Mapper {
	if m.opts.Probe == nil {
		return m
	}
	c := *m
	c.opts.Probe = nil
	return &c
}

// NewReader builds worker's per-batch reader pair. Under the default
// discipline that is a fresh CachedGBWT pair at the configured initial
// capacity — Giraffe's per-batch cache lifetime, the mechanism behind the
// paper's most significant tuning parameter (§VII-B). Under the epoch
// discipline it pins the current shared snapshots and wraps them with a
// private overflow pair of the same capacity.
func (m *Mapper) NewReader(worker int) gbwt.BiReader {
	if m.shared != nil {
		return m.shared.NewBiReader(m.sharedRow(worker), m.opts.CacheCapacity)
	}
	return m.bi.NewBiReader(m.opts.CacheCapacity)
}

// MapRecord runs the two critical functions (cluster_seeds and
// process_until_threshold_c) for one record. index is the record's global
// position in the workload; worker tags trace spans. The reader carries the
// batch's cache state and must not be shared across goroutines.
//
//minigiraffe:hot
func (m *Mapper) MapRecord(worker int, reader gbwt.BiReader, rec *seeds.ReadSeeds, index int) []extend.Extension {
	return m.mapRecordSlow(worker, reader, new(kernelScratch), rec, index, 0, 0, nil)
}

// kernelScratch is the two kernels' reusable working memory. MapBatchUntil
// keeps one per batch beside the batch's reader, with the same lifetime and
// the same single-goroutine ownership; the clusters it holds are consumed
// before the next record, and the extensions the kernel returns never
// alias it.
type kernelScratch struct {
	cluster cluster.Scratch
	extend  extend.Scratch
}

// mapRecordSlow is MapRecord over the caller's kernel scratch plus the
// slow-read exemplar capture: cacheNanos attributes the caller's per-batch
// CachedGBWT rebuild to each read it covers, sharedNanos an epoch
// publication the worker performed at the preceding batch boundary. The
// capture is allocation-free (Exemplar is a value; the reservoir
// preallocates) and skipped entirely when no reservoir is configured. sb,
// when non-nil, is the serving path's per-sub-batch request attribution:
// the record's kernel nanos accumulate into it (plain adds — the sub-batch
// is owned by this worker until the batch returns) and its trace ID tags
// the exemplar.
//
//minigiraffe:hot
func (m *Mapper) mapRecordSlow(worker int, reader gbwt.BiReader, ks *kernelScratch, rec *seeds.ReadSeeds, index int, cacheNanos, sharedNanos int64, sb *obs.SubBatch) []extend.Extension {
	var t0 time.Time
	var dc, dt time.Duration
	if m.instr {
		t0 = time.Now()
	}
	cls := ks.cluster.ClusterSeeds(m.dist, rec.Seeds, m.opts.Cluster, m.opts.Probe, index)
	if m.instr {
		dc = time.Since(t0)
		if m.opts.Trace != nil {
			m.opts.Trace.Record(worker, trace.RegionCluster, t0, dc)
		}
		m.met.cluster.Observe(worker, dc)
		t0 = time.Now()
	}
	env := &extend.Env{Graph: m.file.Graph, Bi: reader, Probe: m.opts.Probe, Scratch: &ks.extend}
	exts := extend.ProcessUntilThresholdC(env, &rec.Read, rec.Seeds, cls, m.opts.Extend, index)
	if m.instr {
		dt = time.Since(t0)
		if m.opts.Trace != nil {
			m.opts.Trace.Record(worker, trace.RegionThresholdC, t0, dt)
		}
		m.met.threshold.Observe(worker, dt)
		if sb != nil {
			sb.ClusterNanos += int64(dc)
			sb.ExtendNanos += int64(dt)
		}
		if m.slow != nil {
			ex := obs.Exemplar{
				Read:             rec.Read.Name,
				Index:            index,
				Worker:           worker,
				Seeds:            len(rec.Seeds),
				ClusterNanos:     int64(dc),
				ExtendNanos:      int64(dt),
				TotalNanos:       int64(dc + dt),
				CacheBuildNanos:  cacheNanos,
				SharedBuildNanos: sharedNanos,
			}
			if sb != nil {
				ex.Trace = sb.Trace
			}
			m.slow.Offer(worker, ex)
		}
	}
	return exts
}

// MapBatch maps recs (whose global indices start at base) through a fresh
// per-batch CachedGBWT, storing record j's extensions in out[j], and returns
// the batch's drained cache statistics. len(out) must be len(recs).
//
//minigiraffe:hot
func (m *Mapper) MapBatch(worker int, recs []seeds.ReadSeeds, base int, out [][]extend.Extension) gbwt.CacheStats {
	cs, _ := m.MapBatchUntil(worker, recs, base, out, nil, nil)
	return cs
}

// MapBatchUntil is MapBatch with a cooperative cancellation point between
// records: when stop becomes true mid-batch, the remaining records are left
// unmapped and mapped reports how many completed. This is the mechanism
// behind request-level deadlines in the serving path (pipeline.Session): a
// deadline that fires while a batch is on a worker stops the mapper at the
// next record boundary instead of running the batch to completion. A nil
// stop never cancels, so the batch pipeline pays only a nil check per
// record. sb, when non-nil, receives the batch's request attribution: the
// cache-build and per-record kernel nanos accumulate into it and its trace
// ID tags every slow-read exemplar the batch produces (the serving path's
// map_subbatch span decomposition). The batch's kernel scratch is made
// beside its reader and shares its lifetime.
//
//minigiraffe:hot
func (m *Mapper) MapBatchUntil(worker int, recs []seeds.ReadSeeds, base int, out [][]extend.Extension, stop *atomic.Bool, sb *obs.SubBatch) (cs gbwt.CacheStats, mapped int) {
	var t0 time.Time
	if m.instr {
		t0 = time.Now()
	}
	reader := m.NewReader(worker)
	ks := new(kernelScratch)
	var cacheNanos, sharedNanos int64
	if m.shared != nil {
		sharedNanos = m.pendingShared[m.sharedRow(worker)].Swap(0)
	}
	if m.instr {
		// The per-batch CachedGBWT rebuild is Giraffe's cache lifetime —
		// the cost the §VII-B capacity parameter trades against hit rate.
		// Under the epoch discipline this times only the private overflow
		// construction; the shared build is attributed by TryPublishEpoch.
		d := time.Since(t0)
		if m.opts.Trace != nil {
			m.opts.Trace.Record(worker, trace.RegionCacheBuild, t0, d)
		}
		m.met.cacheBuild.Observe(worker, d)
		cacheNanos = int64(d)
		if sb != nil {
			sb.CacheBuildNanos += int64(d)
		}
	}
	for j := range recs {
		if stop != nil && stop.Load() {
			break
		}
		out[j] = m.mapRecordSlow(worker, reader, ks, &recs[j], base+j, cacheNanos, sharedNanos, sb)
		mapped++
	}
	cs = ReaderCacheStats(reader)
	if m.shared != nil {
		m.met.epochShared.Add(worker, cs.SharedHits)
		m.met.epochPrivate.Add(worker, cs.Hits)
		m.met.epochDecode.Add(worker, cs.Misses)
	}
	return cs, mapped
}

// cacheStatser is any reader layer that can drain its cache counters —
// CachedGBWT and the epoch discipline's EpochReader both qualify.
type cacheStatser interface{ Stats() gbwt.CacheStats }

// ReaderCacheStats drains the cache counters of both directions of a
// BiReader (zero when caching is disabled). It works across cache
// disciplines: any reader exposing Stats contributes, so shared-epoch and
// private-only stats merge identically — and since CacheStats.Add is
// commutative, the per-worker aggregation is order-independent.
func ReaderCacheStats(r gbwt.BiReader) (s gbwt.CacheStats) {
	for _, rd := range []gbwt.Reader{r.Fwd, r.Rev} {
		if c, ok := rd.(cacheStatser); ok {
			s.Add(c.Stats())
		}
	}
	return s
}

// Run executes the batch proxy over records on the prepared mapper: the
// whole workload is queued at once on the scheduler's worker pool, with
// each batch getting a fresh CachedGBWT.
func (m *Mapper) Run(records []seeds.ReadSeeds) (*Result, error) {
	opts := m.opts
	if opts.Scheduler < sched.Dynamic || opts.Scheduler > sched.Static {
		return nil, fmt.Errorf("core: unknown scheduler kind %d", opts.Scheduler)
	}
	threads := opts.Threads
	if threads <= 0 {
		threads = defaultThreads()
	}
	if threads > len(records) && len(records) > 0 {
		threads = len(records)
	}
	run := m
	if threads != 1 {
		run = m.WithoutProbe()
	}
	res := &Result{Extensions: make([][]extend.Extension, len(records))}
	cacheStats := make([]gbwt.CacheStats, threads)
	bs := opts.BatchSize
	nb := (len(records) + bs - 1) / bs

	start := time.Now()
	pool := sched.NewPool(opts.Scheduler, threads, nb, opts.Obs, obs.NewProfLabels(obs.ClassBatch, threads),
		func(worker, lo int) int {
			hi := min(lo+bs, len(records))
			cacheStats[worker].Add(run.MapBatch(worker, records[lo:hi], lo, res.Extensions[lo:hi]))
			// Batch boundary: tick the epoch clock (publishes the next shared
			// snapshot every interval; no-op without the epoch cache).
			run.TryPublishEpoch(worker)
			return hi - lo
		})
	// The queue holds every batch, so no push blocks. Batch i is pinned to
	// worker i·threads/nb: even contiguous shares, which Static keeps and
	// WorkStealing rebalances by stealing.
	for i := 0; i < nb; i++ {
		pool.Push(i*threads/nb, i*bs)
	}
	pool.Close()
	res.Makespan = time.Since(start)
	res.Sched = pool.Stats()
	for _, s := range cacheStats {
		res.Cache.Add(s)
	}
	return res, nil
}
