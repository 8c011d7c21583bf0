package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/extend"
	"repro/internal/giraffe"
	"repro/internal/minimizer"
	"repro/internal/pipeline"
	"repro/internal/seeds"
)

// mapLeg streams workload parts through the pipeline: captured seeds
// through seeds.NewReader, or FASTQ through giraffe.NewExtractSource (when
// minIx is set), into pipeline.RunToCSV over the hashing writer. Traced, it
// runs what RunToCSV runs — pipeline.Run with a pipeline.CSVEmitter — with
// the Source and Emitter wrapped to record spans and their busy time.
type mapLeg struct {
	m       *core.Mapper
	minIx   *minimizer.Index
	workers int
	check   *csvCheck
	rec     *recorder   // nil: untraced
	use     *runtimeUse // when set, runtime/metrics deltas accumulate here
}

// passResult is one pass over a part.
type passResult struct {
	secs     float64
	reads    int
	failed   int
	sourceNs int64 // traced only: time inside Source.Next
	emitNs   int64 // traced only: time inside Emitter.Emit
}

// pass maps p once. It starts from a collected heap, so each pass pays for
// the same garbage collection work instead of inheriting a share of its
// predecessor's.
func (l *mapLeg) pass(p *part) (passResult, error) {
	runtime.GC()
	l.check.reset(p.ref)
	if l.use != nil {
		stop := watchRuntime()
		defer func() { l.use.add(stop()) }()
	}
	opts := pipeline.Options{Workers: l.workers, BatchSize: batchSize}
	var res passResult
	t0 := time.Now()
	var src pipeline.Source
	if l.minIx != nil {
		es := giraffe.NewExtractSource(l.minIx, bytes.NewReader(p.fastq), giraffe.DefaultLookahead)
		defer es.Close()
		src = es
	} else {
		r, err := seeds.NewReader(bytes.NewReader(p.seeds))
		if err != nil {
			return res, fmt.Errorf("seeds.NewReader: %w", err)
		}
		src = r
	}
	var st *pipeline.Stats
	var err error
	if l.rec == nil {
		st, err = pipeline.RunToCSV(l.m, src, l.check, opts)
	} else {
		st, err = l.tracedRun(src, opts, &res)
	}
	res.secs = time.Since(t0).Seconds()
	if err != nil {
		return res, fmt.Errorf("pipeline: %w", err)
	}
	res.reads = st.Reads
	failed := l.check.failed()
	if st.Reads != p.ref.reads {
		failed += abs(p.ref.reads - st.Reads)
	}
	res.failed = min(failed, p.ref.reads)
	return res, nil
}

// tracedRun is pipeline.RunToCSV with the Source and Emitter wrapped.
func (l *mapLeg) tracedRun(src pipeline.Source, opts pipeline.Options, res *passResult) (*pipeline.Stats, error) {
	passID, passStart := l.rec.newID(), l.rec.now()
	csv, err := pipeline.NewCSVEmitter(l.check)
	if err != nil {
		return nil, err
	}
	ts := &timedSource{inner: src, rec: l.rec, parent: passID}
	te := &timedEmitter{inner: csv, rec: l.rec, parent: passID}
	st, err := pipeline.Run(l.m, ts, te, opts)
	if err == nil {
		err = csv.Flush()
	}
	l.rec.add(passID, 0, spanPipePass, passStart, l.rec.now())
	res.sourceNs, res.emitNs = ts.busy, te.busy
	return st, err
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// timedSource records a span around every Next.
type timedSource struct {
	inner  pipeline.Source
	rec    *recorder
	parent int64
	busy   int64
}

func (s *timedSource) Next() (*seeds.ReadSeeds, error) {
	t0 := s.rec.now()
	r, err := s.inner.Next()
	t1 := s.rec.now()
	s.rec.add(s.rec.newID(), s.parent, spanSource, t0, t1)
	s.busy += t1 - t0
	return r, err
}

// timedEmitter records a span around every Emit.
type timedEmitter struct {
	inner  *pipeline.CSVEmitter
	rec    *recorder
	parent int64
	busy   int64
}

func (e *timedEmitter) Emit(rec *seeds.ReadSeeds, exts []extend.Extension) error {
	t0 := e.rec.now()
	err := e.inner.Emit(rec, exts)
	t1 := e.rec.now()
	e.rec.add(e.rec.newID(), e.parent, spanEmitter, t0, t1)
	e.busy += t1 - t0
	return err
}

// mapRun is the outcome of a timed leg of passes.
type mapRun struct {
	passes   []passResult
	readsPS  float64 // median over passes
	failed   int
	attempts int
}

func (r *mapRun) add(p passResult, attempted int) {
	r.passes = append(r.passes, p)
	r.failed += p.failed
	r.attempts += attempted
}

// runPasses maps p once per leg to warm caches (checked, not timed), then
// runs the legs' passes in turn until d has elapsed, with at least
// minRounds rounds. Taking turns keeps a drift in machine speed from
// landing on one leg.
func runPasses(legs []*mapLeg, p *part, d time.Duration, minRounds int) ([]mapRun, error) {
	out := make([]mapRun, len(legs))
	for i, l := range legs {
		warm, err := l.pass(p)
		if err != nil {
			return nil, err
		}
		out[i].failed, out[i].attempts = warm.failed, p.ref.reads
	}
	deadline := time.Now().Add(d)
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		for i, l := range legs {
			res, err := l.pass(p)
			if err != nil {
				return nil, err
			}
			out[i].add(res, p.ref.reads)
		}
	}
	for i := range out {
		rates := make([]float64, len(out[i].passes))
		for j, res := range out[i].passes {
			rates[j] = float64(res.reads) / res.secs
		}
		out[i].readsPS = median(rates)
	}
	return out, nil
}

// mapTurns measures a map workload for d, in at least minRounds rounds.
// After a set-up and a warm-up pass (checked, not timed), each round sets
// up again, then makes one pass over the whole workload, then runs lone
// batches for a third of that pass's time: one 512-read batch at a time,
// each through a fresh pipeline with nothing else running — the latency of
// a small job on an idle system — cycling through the workload's batches.
// Taking turns spreads every metric's samples over the whole run, so a slow
// stretch of the host moves no median unless it covers half the run.
func mapTurns(l *mapLeg, in *inputs, d time.Duration, minRounds int, setup func() error) (full, lone mapRun, err error) {
	if err := setup(); err != nil {
		return full, lone, err
	}
	warm, err := l.pass(&in.all)
	if err != nil {
		return full, lone, err
	}
	full.failed, full.attempts = warm.failed, in.all.ref.reads
	deadline := time.Now().Add(d)
	next := 0
	var rates []float64
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		if err := setup(); err != nil {
			return full, lone, err
		}
		p, err := l.pass(&in.all)
		if err != nil {
			return full, lone, err
		}
		full.add(p, in.all.ref.reads)
		rates = append(rates, float64(p.reads)/p.secs)
		until := time.Now().Add(time.Duration(p.secs / 3 * float64(time.Second)))
		for time.Now().Before(until) {
			b := &in.batches[next%len(in.batches)]
			next++
			res, err := l.pass(b)
			if err != nil {
				return full, lone, err
			}
			lone.add(res, b.ref.reads)
		}
	}
	full.readsPS = median(rates)
	return full, lone, nil
}
