package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/gbz"
	"repro/internal/giraffe"
)

// The traced run times each setup step at least minSetupReps times and
// keeps repeating, up to maxSetupReps, until setupBudget has passed.
const (
	minSetupReps = 5
	maxSetupReps = 40
	setupBudget  = 2 * time.Second
)

// mapOptions is the mapper configuration every leg uses.
func mapOptions(workers int) core.Options {
	return core.Options{Threads: workers, BatchSize: batchSize, CacheCapacity: cacheCapacity}
}

// loaded is what setup produces: the decoded GBZ, the mapper and, for the
// legs that extract seeds, the giraffe indexes.
type loaded struct {
	f  *gbz.File
	ix *giraffe.Indexes
	m  *core.Mapper
}

// load reads the GBZ bytes and builds the mapper: core.NewMapper alone, or,
// when withMinimizers is set (the FASTQ leg extracts seeds),
// giraffe.BuildIndexes + core.NewMapperFromIndexes.
func load(in *inputs, workers int, withMinimizers bool) (*loaded, error) {
	if withMinimizers {
		l, err := loadIndexes(in)
		if err != nil {
			return nil, err
		}
		l.m, err = core.NewMapperFromIndexes(l.f, l.ix.Dist, l.ix.Bi, mapOptions(workers))
		return l, err
	}
	f, err := gbz.Read(bytes.NewReader(in.gbz))
	if err != nil {
		return nil, fmt.Errorf("gbz.Read: %w", err)
	}
	m, err := core.NewMapper(f, mapOptions(workers))
	return &loaded{f: f, m: m}, err
}

// loadIndexes reads the GBZ bytes and runs giraffe.BuildIndexes; the
// mapper is left to the caller.
func loadIndexes(in *inputs) (*loaded, error) {
	f, err := gbz.Read(bytes.NewReader(in.gbz))
	if err != nil {
		return nil, fmt.Errorf("gbz.Read: %w", err)
	}
	ix, err := giraffe.BuildIndexes(f)
	if err != nil {
		return nil, err
	}
	return &loaded{f: f, ix: ix}, nil
}

// setups repeats a set-up through a run; setup_s and setup_heap_mb are the
// medians over its repetitions.
type setups struct {
	build   func() (release func(), err error)
	release func()
	secs    []float64
	heapMB  []float64
}

// rep releases the previous set-up and times a new one. It starts from a
// collected heap; the retained heap is the live-object growth across the
// set-up, measured after a forced collection.
func (s *setups) rep() error {
	s.close()
	runtime.GC()
	before := heapObjects()
	t0 := time.Now()
	rel, err := s.build()
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	s.release = rel
	runtime.GC()
	s.secs = append(s.secs, d.Seconds())
	s.heapMB = append(s.heapMB, (float64(heapObjects())-float64(before))/(1<<20))
	return nil
}

// close releases the last set-up.
func (s *setups) close() {
	if s.release != nil {
		s.release()
		s.release = nil
	}
}

// medianTime runs f repeatedly (see minSetupReps) and returns its median
// wall time in seconds.
func medianTime(f func() error) (float64, error) {
	s := setups{build: func() (func(), error) { return nil, f() }}
	start := time.Now()
	for len(s.secs) < minSetupReps || (len(s.secs) < maxSetupReps && time.Since(start) < setupBudget) {
		if err := s.rep(); err != nil {
			return 0, err
		}
	}
	return median(s.secs), nil
}

const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
)

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: mHeapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeUse is the runtime/metrics delta over one timed leg.
type runtimeUse struct {
	allocBytes      float64
	gcCPU, totalCPU float64
	heapPeak        uint64
}

func (u *runtimeUse) add(o runtimeUse) {
	u.allocBytes += o.allocBytes
	u.gcCPU += o.gcCPU
	u.totalCPU += o.totalCPU
	u.heapPeak = max(u.heapPeak, o.heapPeak)
}

// watchRuntime starts sampling the live heap every few milliseconds; the
// returned stop ends the sampler, waits for it, and returns the deltas
// since the call.
func watchRuntime() (stop func() runtimeUse) {
	read := func() []metrics.Sample {
		s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCPU}, {Name: mTotalCPU}}
		metrics.Read(s)
		return s
	}
	before := read()
	quit := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		var p uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if h := heapObjects(); h > p {
				p = h
			}
			select {
			case <-tick.C:
			case <-quit:
				peak <- p
				return
			}
		}
	}()
	return func() runtimeUse {
		close(quit)
		p := <-peak
		after := read()
		return runtimeUse{
			allocBytes: float64(after[0].Value.Uint64() - before[0].Value.Uint64()),
			gcCPU:      after[1].Value.Float64() - before[1].Value.Float64(),
			totalCPU:   after[2].Value.Float64() - before[2].Value.Float64(),
			heapPeak:   p,
		}
	}
}
