// Command perfbench is the repository benchmark. It generates one of three
// workloads from a seed, hands only the generated bytes (GBZ, captured
// seeds, FASTQ) and HTTP bodies to the program's public entry points,
// checks every output against a reference computed with core.Run, and
// prints its metrics by name with their units. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 they are the per-layer ones, from a separate traced
// run whose spans are written under .bench_build/spans/ as gzipped CSV.
// README.md maps every metric to its layer and workload.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload map-seeds --seed 7 --seconds 25 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/gbz"
	"repro/internal/giraffe"
)

func main() {
	wl := flag.String("workload", "", "workload: map-seeds, map-fastq-zipf or serve-open")
	seed := flag.Int64("seed", 1, "workload generator seed (workload.Spec.Seed)")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	if !slices.Contains(workloadNames, *wl) || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds ≥ 1 and --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	// All load comes from this process: cap GOMAXPROCS, map workers and
	// client connections at the CPUs it may use.
	procs := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	cfg := config{
		workload: *wl,
		seed:     *seed,
		d:        time.Duration(*seconds) * time.Second,
		workers:  min(2, procs),
		conns:    min(2, procs),
	}
	res, err := run(cfg, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload       string
	seed           int64
	d              time.Duration
	workers, conns int
}

// metric is one printed figure. n, when set, is the sample count behind a
// percentile.
type metric struct {
	name, unit string
	value      float64
	n          int
}

// result is a finished run: its metrics and its operation accounting per
// leg (reads for map legs, requests for serve legs).
type result struct {
	metrics []metric
	legs    []legCount
}

type legCount struct {
	name, unit        string
	attempted, failed int
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *result) addN(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, n: n})
}

func (r *result) leg(name, unit string, attempted, failed int) {
	r.legs = append(r.legs, legCount{name: name, unit: unit, attempted: attempted, failed: failed})
}

// print writes one human-readable line per leg and metric, then the JSON
// result line.
func (r *result) print(w *os.File) error {
	attempted, failed := 0, 0
	for _, l := range r.legs {
		fmt.Fprintf(w, "%-34s failed/attempted %d/%d %s\n", l.name, l.failed, l.attempted, l.unit)
		attempted += l.attempted
		failed += l.failed
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]jm{}}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		line := fmt.Sprintf("%-34s %14.6g %s", m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" (n=%d)", m.n)
		}
		fmt.Fprintln(w, line)
		out.Metrics[m.name] = jm{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func run(cfg config, traced bool) (*result, error) {
	in, err := makeInputs(spec(cfg.workload, cfg.seed), cfg.workers)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", cfg.workload, err)
	}
	if traced {
		return traceRun(cfg, in)
	}
	if cfg.workload == wlServe {
		return measureServe(cfg, in)
	}
	return measureMap(cfg, in)
}

// measureMap is the untraced run of a map workload.
func measureMap(cfg config, in *inputs) (*result, error) {
	withMinimizers := cfg.workload == wlMapFASTQ
	leg := &mapLeg{workers: cfg.workers, check: new(csvCheck)}
	su := &setups{build: func() (func(), error) {
		l, err := load(in, cfg.workers, withMinimizers)
		if err != nil {
			return nil, err
		}
		leg.m = l.m
		if withMinimizers {
			leg.minIx = l.ix.MinIx
		}
		return func() { leg.m, leg.minIx = nil, nil }, nil
	}}
	mr, lone, err := mapTurns(leg, in, cfg.d, minSetupReps, su.rep)
	if err != nil {
		return nil, err
	}
	loneMs := make([]float64, len(lone.passes))
	for i, p := range lone.passes {
		loneMs[i] = p.secs * 1e3
	}
	p50, err := percentile(loneMs, 500)
	if err != nil {
		return nil, fmt.Errorf("lone-batch latency: %w", err)
	}
	r := &result{}
	r.leg(cfg.workload, "reads", mr.attempts, mr.failed)
	r.leg(cfg.workload+" lone batches", "reads", lone.attempts, lone.failed)
	r.addN("setup_s", "s", median(su.secs), len(su.secs))
	r.add("setup_heap_mb", "MB", median(su.heapMB))
	r.addN("reads_per_s", "reads/s", mr.readsPS, len(mr.passes))
	r.addN("latency_p50_ms", "ms", p50, len(loneMs))
	return r, nil
}

// measureServe is the untraced run of serve-open.
func measureServe(cfg config, in *inputs) (*result, error) {
	c := newClient("", cfg.conns, in, nil)
	defer c.close()
	su := &setups{build: func() (func(), error) {
		l, err := loadIndexes(in)
		if err != nil {
			return nil, err
		}
		srv, err := startServer(l, cfg.workers, nil)
		if err != nil {
			return nil, err
		}
		c.url = srv.url
		return func() { srv.close() }, nil
	}}
	defer su.close()
	sr, err := runServe(c, cfg.d, false, su.rep)
	if err != nil {
		return nil, err
	}
	light := latenciesMs(sr.light)
	p50, err := percentile(light, 500)
	if err != nil {
		return nil, fmt.Errorf("light phase: %w", err)
	}
	r := &result{}
	r.leg(cfg.workload, "requests", sr.attempts, sr.failed)
	r.addN("setup_s", "s", median(su.secs), len(su.secs))
	r.add("setup_heap_mb", "MB", median(su.heapMB))
	r.addN("reads_per_s", "reads/s", sr.satRPS*readsPerReq, len(sr.sat))
	r.addN("latency_p50_ms", "ms", p50, len(light))
	return r, nil
}

// traceRun is the traced run of any workload. It measures every layer on
// the workload's inputs: setup steps, the workload's own leg untraced (the
// base of trace.overhead_frac and of the runtime figures) and traced, the
// single-goroutine layer pass, the traced pipeline leg, and the traced
// serve leg.
func traceRun(cfg config, in *inputs) (*result, error) {
	r := &result{}
	if err := traceSetup(r, in, cfg.workers); err != nil {
		return nil, err
	}
	l, err := load(in, cfg.workers, true)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	part := cfg.d / 4
	fromFASTQ := cfg.workload == wlMapFASTQ
	newLeg := func(rec *recorder) *mapLeg {
		leg := &mapLeg{m: l.m, workers: cfg.workers, check: new(csvCheck), rec: rec}
		if fromFASTQ {
			leg.minIx = l.ix.MinIx
		}
		return leg
	}

	// The workload's own leg, untraced and traced. The runtime figures are
	// taken over untraced passes; the peak heap is reported above the live
	// heap they start from.
	var base, tracedRate, reads, overhead float64
	var use runtimeUse
	var pipe mapRun
	var sv serveRun
	runtime.GC()
	live := heapObjects()
	if cfg.workload == wlServe {
		srv, err := startServer(l, cfg.workers, nil)
		if err != nil {
			return nil, err
		}
		c := newClient(srv.url, cfg.conns, in, nil)
		stop := watchRuntime()
		plain, err := runServe(c, part, true, nil)
		use = stop()
		c.close()
		if cerr := srv.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		r.leg("untraced saturated", "requests", plain.attempts, plain.failed)
		base, reads = plain.satRPS*readsPerReq, float64((plain.attempts-plain.failed)*readsPerReq)
		if sv, err = traceServe(r, cfg, l, in, rec); err != nil {
			return nil, err
		}
		tracedRate = sv.satRPS * readsPerReq
		overhead = base/tracedRate - 1
		runs, err := runPasses([]*mapLeg{newLeg(rec)}, &in.all, part/2, 2)
		if err != nil {
			return nil, err
		}
		pipe = runs[0]
		r.leg("traced pipeline", "reads", pipe.attempts, pipe.failed)
	} else {
		runs, err := runPasses([]*mapLeg{newLeg(nil), newLeg(rec)}, &in.all, part, 2)
		if err != nil {
			return nil, err
		}
		plain := runs[0]
		pipe = runs[1]
		r.leg("untraced pipeline", "reads", plain.attempts, plain.failed)
		r.leg("traced pipeline", "reads", pipe.attempts, pipe.failed)
		base, tracedRate = plain.readsPS, pipe.readsPS
		// Passes of the two legs alternate, so compare them round by round:
		// the machine's speed drifts more between rounds than within one.
		ratios := make([]float64, len(pipe.passes))
		for k := range ratios {
			ratios[k] = (pipe.passes[k].secs / float64(pipe.passes[k].reads)) / (plain.passes[k].secs / float64(plain.passes[k].reads))
		}
		overhead = median(ratios) - 1
		// The heap sampler slows mapping a little, so the runtime figures
		// come from passes of their own.
		watched := newLeg(nil)
		watched.use = &use
		if runs, err = runPasses([]*mapLeg{watched}, &in.all, 0, 2); err != nil {
			return nil, err
		}
		r.leg("untraced pipeline (runtime)", "reads", runs[0].attempts, runs[0].failed)
		reads = float64(runs[0].attempts)
		if sv, err = traceServe(r, cfg, l, in, rec); err != nil {
			return nil, err
		}
	}

	lc, err := layerPass(l, in, new(csvCheck), rec)
	if err != nil {
		return nil, err
	}
	r.leg("layer pass", "reads", lc.reads, lc.failed)

	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.csv.gz", cfg.workload, cfg.seed))
	if err := rec.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	self := selfTimes(rec.snapshot())
	perCall := func(k spanKind) float64 { return div(float64(self[k].self), float64(self[k].count)) }
	meanDur := func(k spanKind) float64 { return div(float64(self[k].total), float64(self[k].count)) }
	reads64 := float64(lc.reads)

	r.add("seeds.decode_ns_per_read", "ns", perCall(spanDecode))
	r.add("giraffe.extract_ns_per_read", "ns", perCall(spanPreprocess))
	r.add("giraffe.seeds_per_read", "count", div(float64(lc.seeds), reads64))
	r.add("cluster.ns_per_read", "ns", perCall(spanCluster))
	r.add("cluster.clusters_per_read", "count", div(float64(lc.clusters), reads64))
	r.add("extend.ns_per_read", "ns", perCall(spanExtend))
	r.add("extend.extensions_per_read", "count", div(float64(lc.extensions), reads64))
	r.add("extend.extensions_per_cluster", "ratio", div(float64(lc.extensions), float64(lc.clusters)))
	r.add("gbwt.cache_build_us_per_batch", "us", perCall(spanNewReader)/1e3)
	r.add("gbwt.cache_hit_ratio", "ratio", div(float64(lc.cache.TotalHits()), float64(lc.cache.Accesses)))
	r.add("gbwt.decodes_per_read", "count", div(float64(lc.cache.Misses), reads64))
	r.add("gbwt.rehashes_per_batch", "count", div(float64(lc.cache.Rehashes), float64(lc.batches)))
	r.add("pipeline.emit_ns_per_read", "ns", perCall(spanEmit))
	var srcNs, emitNs, wallNs float64
	for _, p := range pipe.passes {
		srcNs += float64(p.sourceNs)
		emitNs += float64(p.emitNs)
		wallNs += p.secs * 1e9
	}
	r.add("pipeline.source_busy_frac", "ratio", div(srcNs, wallNs))
	r.add("pipeline.emit_busy_frac", "ratio", div(emitNs, wallNs))
	r.add("pipeline.map_subbatch_ms", "ms", meanDur(spanSubBatch)/1e6)
	r.add("serve.extract_ns_per_read", "ns", perCall(spanExtract))
	r.add("serve.http_other_ms", "ms", perCall(spanRequest)/1e6)
	if err := addLatencies(r, "serve.light", latenciesMs(sv.light)); err != nil {
		return nil, err
	}
	if err := addLatencies(r, "serve.heavy", latenciesMs(sv.heavy)); err != nil {
		return nil, err
	}
	r.addN("serve.saturated_rps", "req/s", sv.satRPS, len(sv.sat))
	lag := append(lagMs(sv.light), lagMs(sv.heavy)...)
	pm, v, ok := tail(lag)
	if !ok {
		return nil, fmt.Errorf("generator lag: %d samples support no percentile", len(lag))
	}
	r.addN("loadgen.lag_tail_ms", "ms", v, len(lag))
	r.add("loadgen.lag_tail_pct", "percentile", float64(pm)/10)
	r.add("core.alloc_bytes_per_read", "B", div(use.allocBytes, reads))
	r.add("core.gc_cpu_frac", "ratio", div(use.gcCPU, use.totalCPU))
	r.add("core.heap_peak_mb", "MB", (float64(use.heapPeak)-float64(live))/(1<<20))
	r.add("trace.untraced_reads_per_s", "reads/s", base)
	r.add("trace.traced_reads_per_s", "reads/s", tracedRate)
	r.add("trace.overhead_frac", "ratio", overhead)
	return r, nil
}

// traceSetup times each setup step on its own, repeated as a set-up is.
func traceSetup(r *result, in *inputs, workers int) error {
	f, err := gbz.Read(bytes.NewReader(in.gbz))
	if err != nil {
		return err
	}
	gbzS, err := medianTime(func() error { _, err := gbz.Read(bytes.NewReader(in.gbz)); return err })
	if err != nil {
		return err
	}
	mapperS, err := medianTime(func() error { _, err := core.NewMapper(f, mapOptions(workers)); return err })
	if err != nil {
		return err
	}
	indexS, err := medianTime(func() error { _, err := giraffe.BuildIndexes(f); return err })
	if err != nil {
		return err
	}
	r.add("setup.gbz_read_s", "s", gbzS)
	r.add("setup.new_mapper_s", "s", mapperS)
	r.add("setup.build_indexes_s", "s", indexS)
	return nil
}

// traceServe runs the serve leg against a traced server.
func traceServe(r *result, cfg config, l *loaded, in *inputs, rec *recorder) (serveRun, error) {
	srv, err := startServer(l, cfg.workers, rec)
	if err != nil {
		return serveRun{}, err
	}
	c := newClient(srv.url, cfg.conns, in, rec)
	sv, err := runServe(c, cfg.d/2, false, nil)
	c.close()
	if cerr := srv.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return sv, err
	}
	r.leg("traced serve", "requests", sv.attempts, sv.failed)
	return sv, nil
}

// addLatencies adds a phase's median and its highest supported tail, each
// with its sample count.
func addLatencies(r *result, prefix string, ms []float64) error {
	p50, err := percentile(ms, 500)
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	pm, v, _ := tail(ms)
	r.addN(prefix+"_p50_ms", "ms", p50, len(ms))
	r.addN(prefix+"_tail_ms", "ms", v, len(ms))
	r.add(prefix+"_tail_pct", "percentile", float64(pm)/10)
	return nil
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
