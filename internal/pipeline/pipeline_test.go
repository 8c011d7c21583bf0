package pipeline_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/extend"
	"repro/internal/gbz"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fixture generates a bundle and captures its seeds — the proxy's inputs.
func fixture(t testing.TB, scale float64) (*gbz.File, []seeds.ReadSeeds) {
	t.Helper()
	b, err := workload.Generate(workload.AHuman().Scaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := b.CaptureSeeds()
	if err != nil {
		t.Fatal(err)
	}
	return b.GBZ(), recs
}

func batchCSV(t *testing.T, f *gbz.File, recs []seeds.ReadSeeds, opts core.Options) []byte {
	t.Helper()
	res, err := core.Run(f, recs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WriteCSV(&buf, recs, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamMatchesBatchCSV is the acceptance criterion: streaming mode must
// produce byte-identical WriteCSV output to batch mode on the same workload,
// for every scheduler policy and several pool/batch/depth shapes.
func TestStreamMatchesBatchCSV(t *testing.T) {
	f, recs := fixture(t, 0.06)
	want := batchCSV(t, f, recs, core.Options{Threads: 2, BatchSize: 8})
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []sched.Kind{sched.Dynamic, sched.WorkStealing, sched.Static} {
		for _, workers := range []int{1, 3} {
			for _, batch := range []int{1, 4, 1024} {
				for _, depth := range []int{1, 4} {
					var buf bytes.Buffer
					st, err := pipeline.RunToCSV(m, pipeline.NewSliceSource(recs), &buf, pipeline.Options{
						Workers: workers, BatchSize: batch, Depth: depth, Scheduler: kind,
					})
					if err != nil {
						t.Fatalf("%v w=%d b=%d d=%d: %v", kind, workers, batch, depth, err)
					}
					if !bytes.Equal(want, buf.Bytes()) {
						t.Fatalf("%v w=%d b=%d d=%d: stream CSV differs from batch CSV", kind, workers, batch, depth)
					}
					if st.Reads != len(recs) {
						t.Errorf("%v w=%d b=%d d=%d: streamed %d of %d reads", kind, workers, batch, depth, st.Reads, len(recs))
					}
					wantBatches := (len(recs) + batch - 1) / batch
					if st.Batches != wantBatches {
						t.Errorf("%v w=%d b=%d d=%d: %d batches, want %d", kind, workers, batch, depth, st.Batches, wantBatches)
					}
				}
			}
		}
	}
}

// TestStreamFromFile exercises the incremental file reader end to end: write
// the capture to disk, stream it back without materializing, compare to the
// batch output.
func TestStreamFromFile(t *testing.T) {
	f, recs := fixture(t, 0.05)
	path := filepath.Join(t.TempDir(), "capture.bin")
	if err := seeds.WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	want := batchCSV(t, f, recs, core.Options{Threads: 2, BatchSize: 8})
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := seeds.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var buf bytes.Buffer
	st, err := pipeline.RunToCSV(m, src, &buf, pipeline.Options{Workers: 4, BatchSize: 8, Scheduler: sched.WorkStealing})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatal("stream-from-file CSV differs from batch CSV")
	}
	if st.Reads != len(recs) {
		t.Errorf("streamed %d of %d reads", st.Reads, len(recs))
	}
	if st.Cache.Accesses == 0 {
		t.Error("no cache activity recorded")
	}
}

func TestEmptySource(t *testing.T) {
	f, _ := fixture(t, 0.03)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st, err := pipeline.RunToCSV(m, pipeline.NewSliceSource(nil), &buf, pipeline.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != 0 || st.Batches != 0 {
		t.Errorf("empty source streamed reads=%d batches=%d", st.Reads, st.Batches)
	}
	if got := buf.String(); got != "read,node,offset,strand,read_start,read_end,score,mismatches\n" {
		t.Errorf("empty stream output = %q", got)
	}
}

func TestWorkersExceedBatches(t *testing.T) {
	f, recs := fixture(t, 0.03)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := batchCSV(t, f, recs, core.Options{Threads: 1})
	for _, kind := range []sched.Kind{sched.Dynamic, sched.WorkStealing, sched.Static} {
		var buf bytes.Buffer
		// One giant batch, many workers: all but one idle.
		_, err := pipeline.RunToCSV(m, pipeline.NewSliceSource(recs), &buf, pipeline.Options{
			Workers: 8, BatchSize: len(recs) + 10, Scheduler: kind,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("%v: CSV differs with idle workers", kind)
		}
	}
}

// errSource fails after yielding n records.
type errSource struct {
	recs []seeds.ReadSeeds
	n, i int
}

func (s *errSource) Next() (*seeds.ReadSeeds, error) {
	if s.i >= s.n {
		return nil, errors.New("disk on fire")
	}
	r := &s.recs[s.i]
	s.i++
	return r, nil
}

func TestSourceErrorPropagates(t *testing.T) {
	f, recs := fixture(t, 0.04)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = pipeline.RunToCSV(m, &errSource{recs: recs, n: len(recs) / 2}, &buf, pipeline.Options{
		Workers: 2, BatchSize: 4,
	})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("disk on fire")) {
		t.Fatalf("source error not propagated: %v", err)
	}
}

// failEmitter errors on the nth emitted record.
type failEmitter struct{ n, i int }

func (e *failEmitter) Emit(*seeds.ReadSeeds, []extend.Extension) error {
	e.i++
	if e.i >= e.n {
		return fmt.Errorf("emit %d failed", e.i)
	}
	return nil
}

func TestEmitterErrorPropagates(t *testing.T) {
	f, recs := fixture(t, 0.04)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = pipeline.Run(m, pipeline.NewSliceSource(recs), &failEmitter{n: 3}, pipeline.Options{
		Workers: 3, BatchSize: 2,
	})
	if err == nil {
		t.Fatal("emitter error not propagated")
	}
}

// stallingSource yields recs; its third Next blocks until release closes,
// then sleeps before returning, and it records whether a Next call is in
// flight.
type stallingSource struct {
	recs     []seeds.ReadSeeds
	calls    int
	release  chan struct{}
	inFlight atomic.Bool
}

func (s *stallingSource) Next() (*seeds.ReadSeeds, error) {
	s.inFlight.Store(true)
	defer s.inFlight.Store(false)
	s.calls++
	if s.calls == 3 {
		<-s.release
		time.Sleep(50 * time.Millisecond)
	}
	if s.calls > len(s.recs) {
		return nil, io.EOF
	}
	return &s.recs[s.calls-1], nil
}

// releasingEmitter fails on its first record and releases the source.
type releasingEmitter struct{ release chan struct{} }

func (e releasingEmitter) Emit(*seeds.ReadSeeds, []extend.Extension) error {
	close(e.release)
	return errors.New("emit failed")
}

// TestRunWaitsForIngestOnAbort: Run must not return while the ingest stage
// is still inside Source.Next, or a caller that closes its source after Run
// (defer src.Close()) closes it under a live reader.
func TestRunWaitsForIngestOnAbort(t *testing.T) {
	f, recs := fixture(t, 0.03)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	src := &stallingSource{recs: recs, release: release}
	_, err = pipeline.Run(m, src, releasingEmitter{release: release}, pipeline.Options{
		Workers: 2, BatchSize: 1,
	})
	if err == nil {
		t.Fatal("emitter error not propagated")
	}
	if src.inFlight.Load() {
		t.Fatal("Run returned while Source.Next was still running")
	}
}

func TestStealsOnlyUnderWorkStealing(t *testing.T) {
	f, recs := fixture(t, 0.05)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []sched.Kind{sched.Dynamic, sched.Static} {
		var buf bytes.Buffer
		st, err := pipeline.RunToCSV(m, pipeline.NewSliceSource(recs), &buf, pipeline.Options{
			Workers: 4, BatchSize: 2, Scheduler: kind,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Sched.Steals != 0 {
			t.Errorf("%v recorded %d steals", kind, st.Sched.Steals)
		}
	}
}

func TestStatsAndTrace(t *testing.T) {
	f, recs := fixture(t, 0.05)
	rec := trace.NewRecorder(1) // deliberately small: pipeline must Grow it
	m, err := core.NewMapper(f, core.Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	const workers = 3
	st, err := pipeline.RunToCSV(m, pipeline.NewSliceSource(recs), &buf, pipeline.Options{
		Workers: workers, BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Workers() < workers+2 {
		t.Fatalf("recorder not grown: %d buffers", rec.Workers())
	}
	regions := map[string]bool{}
	for _, s := range rec.Shares() {
		regions[s.Region] = true
	}
	for _, want := range []string{trace.RegionIngest, trace.RegionEmit, trace.RegionCluster, trace.RegionThresholdC} {
		if !regions[want] {
			t.Errorf("missing region %q in trace", want)
		}
	}
	var processed int64
	for _, p := range st.Sched.Processed {
		processed += p
	}
	if processed != int64(len(recs)) {
		t.Errorf("workers processed %d of %d", processed, len(recs))
	}
	if st.BatchLatency.N != int64(st.Batches) || st.MapLatency.N != int64(st.Batches) {
		t.Errorf("latency samples %d/%d for %d batches", st.BatchLatency.N, st.MapLatency.N, st.Batches)
	}
	if st.IngestLatency.N != int64(st.Batches) {
		t.Errorf("ingest latency samples %d for %d batches", st.IngestLatency.N, st.Batches)
	}
	if st.IngestLatency.Max <= 0 {
		t.Error("ingest latency never recorded a positive sample")
	}
	if st.Makespan <= 0 || st.Throughput() <= 0 {
		t.Errorf("makespan %v throughput %f", st.Makespan, st.Throughput())
	}
}

func TestNilArguments(t *testing.T) {
	f, _ := fixture(t, 0.03)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.Run(nil, pipeline.NewSliceSource(nil), &failEmitter{n: 1 << 30}, pipeline.Options{}); err == nil {
		t.Error("nil mapper accepted")
	}
	if _, err := pipeline.Run(m, nil, &failEmitter{n: 1 << 30}, pipeline.Options{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := pipeline.Run(m, pipeline.NewSliceSource(nil), nil, pipeline.Options{}); err == nil {
		t.Error("nil emitter accepted")
	}
}

func TestSliceSourceEOF(t *testing.T) {
	s := pipeline.NewSliceSource(nil)
	if _, err := s.Next(); err != io.EOF {
		t.Errorf("empty slice source returned %v, want io.EOF", err)
	}
}

func BenchmarkStream(b *testing.B) {
	f, recs := fixture(b, 0.05)
	m, err := core.NewMapper(f, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(m, pipeline.NewSliceSource(recs), discardEmitter{}, pipeline.Options{
			Workers: 4, BatchSize: 8, Scheduler: sched.WorkStealing,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

type discardEmitter struct{}

func (discardEmitter) Emit(*seeds.ReadSeeds, []extend.Extension) error { return nil }
