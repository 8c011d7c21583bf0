package core_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/dna"
	"repro/internal/extend"
	"repro/internal/gbz"
	"repro/internal/giraffe"
	"repro/internal/sched"
	"repro/internal/seeds"
	"repro/internal/trace"
	"repro/internal/vgraph"
	"repro/internal/workload"
)

// fixture generates a bundle and captures its seeds — the proxy's inputs.
func fixture(t testing.TB, scale float64) (*gbz.File, []seeds.ReadSeeds, *workload.Bundle) {
	t.Helper()
	b, err := workload.Generate(workload.AHuman().Scaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := b.CaptureSeeds()
	if err != nil {
		t.Fatal(err)
	}
	return b.GBZ(), recs, b
}

func TestRunBasic(t *testing.T) {
	f, recs, _ := fixture(t, 0.05)
	res, err := core.Run(f, recs, core.Options{Threads: 2, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Extensions) != len(recs) {
		t.Fatalf("%d extension sets for %d records", len(res.Extensions), len(recs))
	}
	withExt := 0
	for _, exts := range res.Extensions {
		if len(exts) > 0 {
			withExt++
		}
	}
	if frac := float64(withExt) / float64(len(recs)); frac < 0.9 {
		t.Errorf("only %.0f%% of reads extended", frac*100)
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
	if res.Cache.Accesses == 0 {
		t.Error("no cache activity recorded")
	}
}

func TestRunNilFile(t *testing.T) {
	if _, err := core.Run(nil, nil, core.Options{}); err == nil {
		t.Error("nil file accepted")
	}
	if _, err := core.Run(&gbz.File{}, nil, core.Options{}); err == nil {
		t.Error("empty file accepted")
	}
}

// TestProxyMatchesParent is the §VI-a functional validation: the proxy's
// outputs must exactly equal the parent's exported extensions, in both
// directions, for every scheduler and cache capacity.
func TestProxyMatchesParent(t *testing.T) {
	f, _, b := fixture(t, 0.08)
	ix, err := giraffe.BuildIndexes(f)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := giraffe.Map(ix, b.Reads, giraffe.Options{Threads: 2, BatchSize: 8, CaptureSeeds: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheduler := range []sched.Kind{sched.Dynamic, sched.WorkStealing, sched.Static} {
		for _, capacity := range []int{-1, 64, 256, 4096} {
			res, err := core.Run(f, parent.Captured, core.Options{
				Threads: 3, BatchSize: 4, Scheduler: scheduler, CacheCapacity: capacity,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.Validate(parent.Extensions, res.Extensions)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Match() {
				t.Fatalf("sched=%v cap=%d: %s", scheduler, capacity, rep)
			}
		}
	}
}

func TestValidateDetectsDrift(t *testing.T) {
	f, recs, _ := fixture(t, 0.03)
	res, err := core.Run(f, recs, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Identical → match.
	rep, err := core.Validate(res.Extensions, res.Extensions)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match() {
		t.Fatalf("self-validation failed: %s", rep)
	}
	// Mutate one extension: both directions must flag it.
	mutated := make([][]extend.Extension, len(res.Extensions))
	copy(mutated, res.Extensions)
	found := false
	for i := range mutated {
		if len(mutated[i]) > 0 {
			row := make([]extend.Extension, len(mutated[i]))
			copy(row, mutated[i])
			row[0].Score++
			mutated[i] = row
			found = true
			break
		}
	}
	if !found {
		t.Skip("no extensions to mutate")
	}
	rep, err = core.Validate(res.Extensions, mutated)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Match() {
		t.Error("mutated output validated as matching")
	}
	if rep.MissingInProxy != 1 || rep.ExtraInProxy != 1 {
		t.Errorf("missing=%d extra=%d, want 1,1", rep.MissingInProxy, rep.ExtraInProxy)
	}
	if !strings.Contains(rep.String(), "FAIL") {
		t.Errorf("report string %q lacks FAIL", rep.String())
	}
	// Length mismatch is an error.
	if _, err := core.Validate(res.Extensions, res.Extensions[:1]); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestRunDeterministicAcrossSchedulers(t *testing.T) {
	f, recs, _ := fixture(t, 0.05)
	var all [][][]extend.Extension
	for _, kind := range []sched.Kind{sched.Dynamic, sched.WorkStealing, sched.Static} {
		res, err := core.Run(f, recs, core.Options{Threads: 4, BatchSize: 4, Scheduler: kind})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, res.Extensions)
	}
	for i := 1; i < len(all); i++ {
		if !reflect.DeepEqual(all[0], all[i]) {
			t.Fatalf("scheduler %d changed output", i)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	f, recs, _ := fixture(t, 0.03)
	res, err := core.Run(f, recs, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WriteCSV(&buf, recs, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "read,node,offset,strand,read_start,read_end,score,mismatches" {
		t.Errorf("header = %q", lines[0])
	}
	total := 0
	for _, exts := range res.Extensions {
		total += len(exts)
	}
	if len(lines)-1 != total {
		t.Errorf("%d CSV rows for %d extensions", len(lines)-1, total)
	}
	// Mismatched lengths rejected.
	if err := core.WriteCSV(&buf, recs[:1], res); err == nil {
		t.Error("mismatched record count accepted")
	}
}

// fmtCSVRecord is the fmt-based row formatter AppendCSVRecord replaced,
// kept as the byte-level reference.
func fmtCSVRecord(rec *seeds.ReadSeeds, exts []extend.Extension) string {
	var sb strings.Builder
	for _, e := range exts {
		strand := "+"
		if e.Rev {
			strand = "-"
		}
		mism := make([]string, len(e.Mismatches))
		for j, m := range e.Mismatches {
			mism[j] = fmt.Sprint(m)
		}
		fmt.Fprintf(&sb, "%s,%d,%d,%s,%d,%d,%d,%s\n",
			rec.Read.Name, e.StartPos.Node, e.StartPos.Off, strand,
			e.ReadStart, e.ReadEnd, e.Score, strings.Join(mism, ";"))
	}
	return sb.String()
}

// TestAppendCSVRecordMatchesFmt checks the strconv formatter byte for byte
// against the fmt one, over extremes as well as real kernel output.
func TestAppendCSVRecordMatchesFmt(t *testing.T) {
	f, recs, _ := fixture(t, 0.03)
	res, err := core.Run(f, recs, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	odd := seeds.ReadSeeds{Read: dna.Read{Name: "odd name,\x00é"}}
	oddExts := []extend.Extension{
		{StartPos: vgraph.Position{Node: math.MaxUint32, Off: math.MinInt32}, ReadStart: -1, ReadEnd: math.MaxInt32, Score: math.MinInt32, Rev: true, Mismatches: []int32{0, -7, math.MaxInt32}},
		{Mismatches: []int32{}},
		{},
	}
	type csvCase struct {
		rec  *seeds.ReadSeeds
		exts []extend.Extension
	}
	cases := []csvCase{{&odd, oddExts}, {&odd, nil}}
	for i := range recs {
		cases = append(cases, csvCase{&recs[i], res.Extensions[i]})
	}
	buf := []byte("prefix")
	for i, c := range cases {
		buf = core.AppendCSVRecord(buf[:6], c.rec, c.exts)
		if got, want := string(buf[6:]), fmtCSVRecord(c.rec, c.exts); got != want {
			t.Fatalf("case %d:\n got %q\nwant %q", i, got, want)
		}
		var w bytes.Buffer
		if err := core.WriteCSVRecord(&w, c.rec, c.exts); err != nil || w.String() != fmtCSVRecord(c.rec, c.exts) {
			t.Fatalf("case %d: WriteCSVRecord wrote %q, %v", i, w.String(), err)
		}
	}
}

func TestRunWithTraceAndStats(t *testing.T) {
	f, recs, _ := fixture(t, 0.04)
	rec := trace.NewRecorder(2)
	res, err := core.Run(f, recs, core.Options{Threads: 2, BatchSize: 4, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	shares := rec.Shares()
	regions := map[string]bool{}
	for _, s := range shares {
		regions[s.Region] = true
	}
	if !regions[trace.RegionCluster] || !regions[trace.RegionThresholdC] {
		t.Errorf("missing kernel regions in trace: %v", shares)
	}
	var processed int64
	for _, p := range res.Sched.Processed {
		processed += p
	}
	if processed != int64(len(recs)) {
		t.Errorf("sched processed %d of %d", processed, len(recs))
	}
}

func TestRunSingleThreadProbe(t *testing.T) {
	f, recs, _ := fixture(t, 0.03)
	h := counters.NewDefaultHierarchy()
	if _, err := core.Run(f, recs, core.Options{Threads: 1, Probe: h}); err != nil {
		t.Fatal(err)
	}
	if c := h.Snapshot(counters.DefaultCycleModel); c.Instr == 0 {
		t.Error("probe recorded nothing on single-thread run")
	}
}

func TestCacheCapacityAffectsStats(t *testing.T) {
	f, recs, _ := fixture(t, 0.05)
	disabled, err := core.Run(f, recs, core.Options{Threads: 1, CacheCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := core.Run(f, recs, core.Options{Threads: 1, CacheCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if disabled.Cache.Hits != 0 {
		t.Errorf("disabled cache had %d hits", disabled.Cache.Hits)
	}
	if cached.Cache.Hits == 0 {
		t.Error("enabled cache had no hits")
	}
	if cached.Cache.Misses >= disabled.Cache.Misses {
		t.Errorf("cache did not reduce decompressions: %d vs %d",
			cached.Cache.Misses, disabled.Cache.Misses)
	}
}

func TestSortExtensions(t *testing.T) {
	exts := []extend.Extension{
		{Score: 1, StartPos: vgraph.Position{Node: 2}},
		{Score: 5, StartPos: vgraph.Position{Node: 1}},
		{Score: 5, StartPos: vgraph.Position{Node: 3}},
	}
	core.SortExtensions(exts)
	if exts[0].Score != 5 || exts[0].StartPos.Node != 1 {
		t.Errorf("sort wrong: %+v", exts)
	}
	if exts[2].Score != 1 {
		t.Errorf("sort wrong: %+v", exts)
	}
}
