package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names a span: one per layer boundary the traced run crosses,
// each timed from outside, around a call into that layer's public API.
type spanKind uint8

const (
	spanLayerPass  spanKind = iota
	spanBatch               // one 512-read batch of the layer pass
	spanRead                // one read of the layer pass
	spanNewReader           // core.Mapper.NewReader
	spanDecode              // seeds.Reader.Next
	spanPreprocess          // giraffe.Preprocess
	spanCluster             // cluster.ClusterSeeds
	spanExtend              // extend.ProcessUntilThresholdC
	spanEmit                // pipeline.CSVEmitter.Emit
	spanPipePass            // pipeline.Run over a wrapped Source/Emitter
	spanSource              // Source.Next handed to pipeline.Run
	spanEmitter             // Emitter.Emit handed to pipeline.Run
	spanSubBatch            // BatchMapper.MapBatchUntil under a Session
	spanExtract             // serve.Config.Extract
	spanRequest             // client send → response body read
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"bench.layer_pass", "bench.batch", "bench.read", "gbwt.new_reader", "seeds.decode",
	"giraffe.preprocess", "cluster.cluster_seeds", "extend.process_until_threshold_c",
	"pipeline.csv_emit", "pipeline.run", "pipeline.source", "pipeline.emitter",
	"pipeline.map_subbatch", "serve.extract", "loadgen.request",
}

func (k spanKind) String() string { return spanNames[k] }

// span is one timed interval. Times are nanoseconds since the recorder's
// epoch; parent is 0 for a root. It holds no pointers, so the collector
// never scans the recorder's (large) span buffer.
type span struct {
	id, parent int64
	start, end int64
	kind       spanKind
}

// recorder keeps spans in memory for the whole traced run; they are written
// out once, when the run ends. A nil *recorder means tracing is off, and
// callers skip every timing call.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

// newID reserves a span identifier, so a parent can be named by its children
// before it ends.
func (r *recorder) newID() int64 { return r.ids.Add(1) }

// now is the recorder clock.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// add records a finished span.
func (r *recorder) add(id, parent int64, kind spanKind, start, end int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{id: id, parent: parent, kind: kind, start: start, end: end})
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as gzipped CSV (id,parent,name,start_ns,end_ns).
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level: no error
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id,parent,name,start_ns,end_ns")
	for _, s := range r.snapshot() {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d\n", s.id, s.parent, s.kind, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime aggregates the spans of one kind.
type layerTime struct {
	count int
	total int64 // summed durations
	self  int64 // summed self times
}

// selfTimes aggregates spans by kind. A span's self time is its duration
// minus the part of its interval covered by its direct children; children
// that overlap each other count once, and the parts of a child outside its
// parent's interval count not at all.
func selfTimes(spans []span) [numSpanKinds]layerTime {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	var out [numSpanKinds]layerTime
	for _, s := range spans {
		d := s.end - s.start
		lt := &out[s.kind]
		lt.count++
		lt.total += d
		lt.self += d - covered(children[s.id], s.start, s.end)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}
