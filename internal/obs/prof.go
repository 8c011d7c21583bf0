package obs

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"
)

// This file is the continuous-profiling half of the flight recorder: a
// self-capturing profiler that rotates CPU profile segments (plus a heap
// profile at every boundary) into a directory next to the run manifest, and
// the pprof label taxonomy that makes those samples decomposable offline.
// Where the metric series answers "when did this run degrade", the profile
// segments answer "which function" — cmd/profdiff aligns two captures by
// symbol and gates CI on flat/cum regressions.

// pprof label taxonomy. Labels are applied per goroutine or per stage — a
// pool worker labels itself once when it starts, never per batch or per
// record — so the hot map path stays allocation-free while every CPU sample
// still carries its pipeline stage, worker index, and serving-vs-batch
// class.
// Label keys must be these named constants (the metricname analyzer enforces
// it), exactly as metric and span names must: profdiff groups by key, so a
// runtime-assembled key would silently split the breakdown.
const (
	// LabelStage partitions samples by pipeline stage.
	LabelStage = "stage"
	// LabelWorker is the claiming worker's index (map stage only).
	LabelWorker = "worker"
	// LabelRequestClass separates the serving path from batch runs.
	LabelRequestClass = "request_class"
)

// LabelStage values, mirroring the pipeline_stage_* metric split.
const (
	StageIngest  = "ingest"
	StageMap     = "map"
	StageEmit    = "emit"
	StageExtract = "extract"
)

// LabelRequestClass values: a CLI/batch run versus the serving path
// (pipeline.Session sub-batches and the HTTP handlers feeding them).
const (
	ClassBatch = "batch"
	ClassServe = "serve"
)

// ProfLabels is a prebuilt set of goroutine-label contexts for one execution
// path: one context per (stage, worker) pair, constructed once at pool
// startup so applying labels at a stage switch is an array index plus
// pprof.SetGoroutineLabels — no per-batch allocation, nothing at all per
// record. A nil *ProfLabels is a no-op on every method, mirroring the
// nil-safe registry handles.
type ProfLabels struct {
	mapCtxs                      []context.Context
	ingest, emit, extract, clear context.Context
}

// NewProfLabels prebuilds label contexts for a pool of workers under the
// given request class (ClassBatch or ClassServe). workers is clamped to at
// least 1.
func NewProfLabels(class string, workers int) *ProfLabels {
	if workers < 1 {
		workers = 1
	}
	// The label contexts are pure value carriers handed to
	// pprof.SetGoroutineLabels; they never flow into request paths, carry no
	// deadline, and are built once at startup.
	root := context.Background() //vetgiraffe:ignore ctxflow label contexts are value-only pprof carriers built once at pool startup, not request contexts
	p := &ProfLabels{
		clear:   root,
		ingest:  pprof.WithLabels(root, pprof.Labels(LabelStage, StageIngest, LabelRequestClass, class)),
		emit:    pprof.WithLabels(root, pprof.Labels(LabelStage, StageEmit, LabelRequestClass, class)),
		extract: pprof.WithLabels(root, pprof.Labels(LabelStage, StageExtract, LabelRequestClass, class)),
		mapCtxs: make([]context.Context, workers),
	}
	for w := range p.mapCtxs {
		p.mapCtxs[w] = pprof.WithLabels(root, pprof.Labels(
			LabelStage, StageMap,
			LabelWorker, strconv.Itoa(w),
			LabelRequestClass, class))
	}
	return p
}

// ApplyMap labels the calling goroutine as map-stage work on worker's behalf.
// Out-of-range workers clamp onto the prebuilt range, like registry shards.
func (p *ProfLabels) ApplyMap(worker int) {
	if p == nil {
		return
	}
	if worker < 0 {
		worker = 0
	}
	if worker >= len(p.mapCtxs) {
		worker = len(p.mapCtxs) - 1
	}
	pprof.SetGoroutineLabels(p.mapCtxs[worker])
}

// ApplyIngest labels the calling goroutine as the ingest stage.
func (p *ProfLabels) ApplyIngest() {
	if p == nil {
		return
	}
	pprof.SetGoroutineLabels(p.ingest)
}

// ApplyEmit labels the calling goroutine as the emit stage.
func (p *ProfLabels) ApplyEmit() {
	if p == nil {
		return
	}
	pprof.SetGoroutineLabels(p.emit)
}

// ApplyExtract labels the calling goroutine as seed extraction (the serving
// front end's preprocessing).
func (p *ProfLabels) ApplyExtract() {
	if p == nil {
		return
	}
	pprof.SetGoroutineLabels(p.extract)
}

// Clear removes the goroutine's labels. Stages that run on a caller's
// goroutine (the pipeline's emit loop, HTTP handlers) clear on the way out so
// the labels don't outlive the stage.
func (p *ProfLabels) Clear() {
	if p == nil {
		return
	}
	pprof.SetGoroutineLabels(p.clear)
}

// DefaultProfileInterval is the default CPU-segment rotation cadence. Short
// bench-smoke runs produce a single segment; long serving runs rotate so the
// capture stays bounded per file and a crash loses at most one interval.
const DefaultProfileInterval = 30 * time.Second

// ProfileRecorder is the self-capturing profiler: StartProfiles begins a CPU
// profile into dir/cpu-0000.pb.gz and a background loop rotates it every
// interval, writing a heap profile (heap-NNNN.pb.gz) at each boundary. CPU
// segments are disjoint in time, so summing them reconstructs the run;
// consecutive heap profiles carry cumulative alloc_space, so adjacent
// segments subtract into per-interval allocation deltas. Stop closes the
// final segment pair and reports the first capture error.
type ProfileRecorder struct {
	dir      string
	interval time.Duration

	mu  sync.Mutex
	seg int
	cpu *os.File
	err error

	stopOnce sync.Once
	quit     chan struct{}
	done     chan struct{}
}

// StartProfiles creates dir (if needed) and starts the capture loop.
// interval ≤0 defaults to DefaultProfileInterval. Only one CPU profile can
// be active per process: StartProfiles fails if another capture (e.g. a
// -cpuprofile flag or the pprof debug endpoint) already holds it.
func StartProfiles(dir string, interval time.Duration) (*ProfileRecorder, error) {
	if dir == "" {
		return nil, fmt.Errorf("obs: profile capture needs a directory")
	}
	if interval <= 0 {
		interval = DefaultProfileInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &ProfileRecorder{
		dir:      dir,
		interval: interval,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if err := p.startSegmentLocked(); err != nil {
		return nil, err
	}
	//vetgiraffe:ignore nakedgoroutine loop exits via p.quit and signals p.done; Stop closes and waits
	go p.loop()
	return p, nil
}

// Dir returns the capture directory.
func (p *ProfileRecorder) Dir() string {
	if p == nil {
		return ""
	}
	return p.dir
}

func (p *ProfileRecorder) loop() {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.rotate()
		case <-p.quit:
			return
		}
	}
}

// startSegmentLocked opens segment p.seg and starts the CPU profile into it.
func (p *ProfileRecorder) startSegmentLocked() error {
	f, err := os.Create(p.cpuPath(p.seg))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("obs: starting CPU profile: %w", err)
	}
	p.cpu = f
	return nil
}

// closeSegmentLocked stops the running CPU profile, closes its file, and
// writes the boundary heap profile.
func (p *ProfileRecorder) closeSegmentLocked() error {
	if p.cpu == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := p.cpu.Close()
	p.cpu = nil
	hf, herr := os.Create(p.heapPath(p.seg))
	if herr == nil {
		// WriteTo(_, 0) emits the gzipped protobuf form; debug>0 would emit
		// the legacy text form, which profdiff and PGO cannot read.
		if werr := pprof.Lookup("heap").WriteTo(hf, 0); werr != nil && herr == nil {
			herr = werr
		}
		if cerr := hf.Close(); cerr != nil && herr == nil {
			herr = cerr
		}
	}
	if err == nil {
		err = herr
	}
	return err
}

// rotate closes the current segment and opens the next. A capture error
// latches: rotation stops, Stop reports it.
func (p *ProfileRecorder) rotate() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return
	}
	if err := p.closeSegmentLocked(); err != nil {
		p.err = err
		return
	}
	p.seg++
	if err := p.startSegmentLocked(); err != nil {
		p.err = err
	}
}

// Stop ends the capture: the in-flight CPU segment and its boundary heap
// profile are flushed and closed. Idempotent and nil-safe; returns the first
// error the recorder hit so a silently failing capture cannot pass for a
// healthy one.
func (p *ProfileRecorder) Stop() error {
	if p == nil {
		return nil
	}
	p.stopOnce.Do(func() {
		close(p.quit)
		<-p.done
		p.mu.Lock()
		if err := p.closeSegmentLocked(); err != nil && p.err == nil {
			p.err = err
		}
		p.mu.Unlock()
	})
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *ProfileRecorder) cpuPath(seg int) string {
	return filepath.Join(p.dir, fmt.Sprintf("cpu-%04d.pb.gz", seg))
}

func (p *ProfileRecorder) heapPath(seg int) string {
	return filepath.Join(p.dir, fmt.Sprintf("heap-%04d.pb.gz", seg))
}
