// Package core is miniGiraffe: the proxy application for Giraffe's
// pangenome mapping pipeline (§V of the paper). It consumes the inputs
// captured from the parent right before the critical functions — the reads
// with their preprocessed seeds (package seeds' .bin format) and the
// pangenome reference as a GBZ file — and executes exactly the two critical
// functions, cluster_seeds and process_until_threshold_c, under a
// configurable parallel scheduler. Its output is the raw mapping result:
// the offsets and scores of each match, with no post-processing.
//
// The three tuning parameters of the paper's autotuning study (§VII-B) are
// all exposed: scheduling policy, batch size, and the initial CachedGBWT
// capacity.
package core

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/extend"
	"repro/internal/gbwt"
	"repro/internal/gbz"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/trace"
)

// Options configures a proxy run: the paper's tuning parameters plus
// instrumentation hooks.
type Options struct {
	// Threads is the worker count; ≤0 means GOMAXPROCS.
	Threads int
	// BatchSize is the scheduler batch size (default 512, as in Giraffe).
	BatchSize int
	// CacheCapacity is each worker's initial CachedGBWT capacity; 0 means
	// the Giraffe default (256), negative disables caching. Under the epoch
	// discipline (EpochCapacity > 0) this sizes the per-worker private
	// overflow layer instead — the same §VII-B knob, applied to snapshot
	// misses only.
	CacheCapacity int
	// EpochCapacity, when > 0, turns on the epoch-published shared cache:
	// a read-only snapshot of up to EpochCapacity hot records per GBWT
	// direction that all workers query lock-free, republished at batch
	// boundaries from access-frequency feedback. 0 (the default) keeps the
	// paper's rebuild-per-worker-per-batch discipline.
	EpochCapacity int
	// Scheduler selects the parallel scheduling policy.
	Scheduler sched.Kind
	// Trace records per-region spans when non-nil.
	Trace *trace.Recorder
	// Obs, when non-nil, receives kernel latency histograms (cluster,
	// process_until_threshold_c, per-batch cache rebuild) and scheduler
	// counters. Nil keeps the hot path free of timing calls.
	Obs *obs.Registry
	// Slow, when non-nil, receives a slow-read exemplar for every mapped
	// record: the reservoir keeps the K slowest, with per-kernel timing and
	// cache-rebuild attribution. Nil (the default) keeps the hot path
	// capture-free.
	Slow *obs.SlowReads
	// Probe drives the hardware-counter model; only honoured with
	// Threads == 1.
	Probe counters.Probe
	// Extend and Cluster tune the critical functions.
	Extend  extend.Params
	Cluster cluster.Params
}

func (o Options) normalize() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = sched.DefaultBatchSize
	}
	switch {
	case o.CacheCapacity == 0:
		o.CacheCapacity = gbwt.DefaultCacheCapacity
	case o.CacheCapacity < 0:
		o.CacheCapacity = 0
	}
	if o.EpochCapacity < 0 {
		o.EpochCapacity = 0
	}
	return o
}

// Result is a completed proxy run.
type Result struct {
	// Extensions holds the raw kernel output per input record.
	Extensions [][]extend.Extension
	// Makespan is the end-to-end mapping wall time (the paper's tuning
	// metric, §VII-B).
	Makespan time.Duration
	// Sched reports scheduler behaviour.
	Sched sched.Stats
	// Cache aggregates every worker's CachedGBWT statistics.
	Cache gbwt.CacheStats
}

// Run executes the proxy over the captured records: index preparation plus a
// batch mapping pass. Callers that map more than once (or stream) should
// build a Mapper and reuse it.
func Run(f *gbz.File, records []seeds.ReadSeeds, opts Options) (*Result, error) {
	m, err := NewMapper(f, opts)
	if err != nil {
		return nil, err
	}
	return m.Run(records)
}

// defaultThreads mirrors sched's default worker count.
func defaultThreads() int { return runtime.GOMAXPROCS(0) }

// WriteCSV emits the proxy's raw mapping output: one row per extension with
// the read name, graph position, strand, read interval, score, and mismatch
// offsets — the .csv output format of the artifact.
func WriteCSV(w io.Writer, records []seeds.ReadSeeds, res *Result) error {
	if len(records) != len(res.Extensions) {
		return fmt.Errorf("core: %d records but %d extension sets", len(records), len(res.Extensions))
	}
	if err := WriteCSVHeader(w); err != nil {
		return err
	}
	var buf []byte
	for i := range records {
		buf = AppendCSVRecord(buf[:0], &records[i], res.Extensions[i])
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSVHeader writes the CSV column header. The streaming pipeline's
// emitter shares it with WriteCSV so both modes produce byte-identical
// output.
func WriteCSVHeader(w io.Writer) error {
	_, err := io.WriteString(w, "read,node,offset,strand,read_start,read_end,score,mismatches\n")
	return err
}

// WriteCSVRecord writes one record's extension rows.
func WriteCSVRecord(w io.Writer, rec *seeds.ReadSeeds, exts []extend.Extension) error {
	_, err := w.Write(AppendCSVRecord(nil, rec, exts))
	return err
}

// AppendCSVRecord appends one record's extension rows to dst and returns
// the extended buffer: the formatter behind WriteCSV, WriteCSVRecord and
// the streaming pipeline's emitter, which reuse one buffer across records.
func AppendCSVRecord(dst []byte, rec *seeds.ReadSeeds, exts []extend.Extension) []byte {
	for _, e := range exts {
		dst = append(dst, rec.Read.Name...)
		dst = append(dst, ',')
		dst = strconv.AppendUint(dst, uint64(e.StartPos.Node), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(e.StartPos.Off), 10)
		if e.Rev {
			dst = append(dst, ",-,"...)
		} else {
			dst = append(dst, ",+,"...)
		}
		dst = strconv.AppendInt(dst, int64(e.ReadStart), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(e.ReadEnd), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(e.Score), 10)
		dst = append(dst, ',')
		for j, m := range e.Mismatches {
			if j > 0 {
				dst = append(dst, ';')
			}
			dst = strconv.AppendInt(dst, int64(m), 10)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// ValidationReport summarises the §VI-a functional validation: property (1)
// every expected match appears in the proxy output, property (2) the proxy
// output contains no match absent from the expected output.
type ValidationReport struct {
	Reads          int
	ExpectedTotal  int
	GotTotal       int
	MissingInProxy int // expected but absent
	ExtraInProxy   int // present but unexpected
}

// Match reports a 100% two-way match.
func (v ValidationReport) Match() bool { return v.MissingInProxy == 0 && v.ExtraInProxy == 0 }

// String renders the report one line per property.
func (v ValidationReport) String() string {
	status := "FAIL"
	if v.Match() {
		status = "PASS (100% match)"
	}
	return fmt.Sprintf("validation %s: reads=%d expected=%d got=%d missing=%d extra=%d",
		status, v.Reads, v.ExpectedTotal, v.GotTotal, v.MissingInProxy, v.ExtraInProxy)
}

// Validate compares the parent's exported extensions against the proxy's,
// read by read, in both directions.
func Validate(expected, got [][]extend.Extension) (ValidationReport, error) {
	if len(expected) != len(got) {
		return ValidationReport{}, fmt.Errorf("core: %d expected reads vs %d proxy reads", len(expected), len(got))
	}
	rep := ValidationReport{Reads: len(expected)}
	for i := range expected {
		rep.ExpectedTotal += len(expected[i])
		rep.GotTotal += len(got[i])
		exp := keySet(expected[i])
		act := keySet(got[i])
		for k := range exp {
			if !act[k] {
				rep.MissingInProxy++
			}
		}
		for k := range act {
			if !exp[k] {
				rep.ExtraInProxy++
			}
		}
	}
	return rep, nil
}

// keySet builds the canonical identity set of an extension list, including
// the score so a score drift also fails validation.
func keySet(exts []extend.Extension) map[string]bool {
	m := make(map[string]bool, len(exts))
	for _, e := range exts {
		m[fmt.Sprintf("%s@%d", e.Key(), e.Score)] = true
	}
	return m
}

// SortExtensions orders a read's extensions canonically (already the kernel
// order); exported for tools that merge outputs.
func SortExtensions(exts []extend.Extension) {
	sort.Slice(exts, func(a, b int) bool {
		if exts[a].Score != exts[b].Score {
			return exts[a].Score > exts[b].Score
		}
		if exts[a].StartPos.Node != exts[b].StartPos.Node {
			return exts[a].StartPos.Node < exts[b].StartPos.Node
		}
		if exts[a].StartPos.Off != exts[b].StartPos.Off {
			return exts[a].StartPos.Off < exts[b].StartPos.Off
		}
		return exts[a].ReadStart < exts[b].ReadStart
	})
}
