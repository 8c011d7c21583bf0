package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
	"time"

	"repro/internal/minimizer"
	"repro/internal/pipeline"
	"repro/internal/seeds"
	"repro/internal/serve"
	"repro/internal/workload"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// Nested: a pass with one batch that has one read. Only direct
		// children are subtracted.
		{id: 1, kind: spanLayerPass, start: 0, end: 100},
		{id: 2, parent: 1, kind: spanBatch, start: 10, end: 60},
		{id: 3, parent: 2, kind: spanRead, start: 20, end: 30},
		// Overlapping children count once; the part of a child outside its
		// parent is clipped.
		{id: 4, kind: spanPipePass, start: 200, end: 300},
		{id: 5, parent: 4, kind: spanSource, start: 210, end: 250},
		{id: 6, parent: 4, kind: spanSource, start: 240, end: 260},
		{id: 7, parent: 4, kind: spanSource, start: 280, end: 320},
		// A child of an unrecorded parent is a plain span.
		{id: 8, parent: 99, kind: spanExtract, start: 0, end: 5},
	}
	want := [numSpanKinds]layerTime{
		spanLayerPass: {count: 1, total: 100, self: 50},
		spanBatch:     {count: 1, total: 50, self: 40},
		spanRead:      {count: 1, total: 10, self: 10},
		spanPipePass:  {count: 1, total: 100, self: 30},
		spanSource:    {count: 3, total: 40 + 20 + 40, self: 100},
		spanExtract:   {count: 1, total: 5, self: 5},
	}
	got := selfTimes(spans)
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("%s: got %+v, want %+v", spanKind(k), got[k], want[k])
		}
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{2, 4}, {6, 8}}, 0, 10, 4},
		{[][2]int64{{6, 8}, {2, 7}}, 0, 10, 6},   // unsorted, overlapping
		{[][2]int64{{2, 4}, {4, 6}}, 0, 10, 4},   // touching
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5}, // clipped both ends
		{[][2]int64{{12, 20}}, 0, 10, 0},         // outside
		{[][2]int64{{1, 9}, {2, 3}}, 0, 10, 8},   // contained
	}
	for _, c := range cases {
		if got := covered(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", c.ivs, c.lo, c.hi, got, c.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n, permille int
		ok          bool
	}{
		{1000, 990, true},
		{999, 990, false},
		{10000, 999, true},
		{9999, 999, false},
		{100, 900, true},
		{99, 900, false},
		{20, 500, true},
		{19, 500, false},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		_, err := percentile(xs, c.permille)
		if (err == nil) != c.ok {
			t.Errorf("n=%d p%s: err=%v, want ok=%v", c.n, pctLabel(c.permille), err, c.ok)
		}
	}

	// The tail is the highest supported rung, and its value the matching
	// order statistic.
	tails := []struct{ n, permille int }{{10000, 999}, {1999, 990}, {999, 950}, {199, 900}, {40, 750}, {20, 500}}
	for _, c := range tails {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[c.n-1-i] = float64(i + 1) // 1..n, reversed
		}
		pm, v, ok := tail(xs)
		if !ok || pm != c.permille {
			t.Errorf("n=%d: tail p%s ok=%v, want p%s", c.n, pctLabel(pm), ok, pctLabel(c.permille))
			continue
		}
		if want := quantile(sortedCopy(xs), float64(pm)/1000); v != want {
			t.Errorf("n=%d: tail value %v, want %v", c.n, v, want)
		}
	}
	if _, _, ok := tail(make([]float64, 19)); ok {
		t.Error("19 samples support no percentile")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// smallInputs generates a few hundred reads, enough to span several batches.
func smallInputs(t *testing.T) *inputs {
	t.Helper()
	s := workload.AHuman().Scaled(0.8)
	s.Seed = 7
	in, err := makeInputs(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// corrupter flips one byte of the stream at offset at, on its way to next.
type corrupter struct {
	next io.Writer
	at   int
	seen int
}

func (c *corrupter) Write(p []byte) (int, error) {
	q := append([]byte(nil), p...)
	if i := c.at - c.seen; i >= 0 && i < len(q) {
		q[i] ^= 0x01
	}
	c.seen += len(p)
	return c.next.Write(q)
}

// mapThrough streams the captured seeds through pipeline.RunToCSV into w.
func mapThrough(t *testing.T, in *inputs, w io.Writer) {
	t.Helper()
	l, err := load(in, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	r, err := seeds.NewReader(bytes.NewReader(in.all.seeds))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.RunToCSV(l.m, r, w, pipeline.Options{Workers: 2, BatchSize: 64}); err != nil {
		t.Fatal(err)
	}
}

func TestCSVCheck(t *testing.T) {
	in := smallInputs(t)
	var clean bytes.Buffer
	mapThrough(t, in, &clean)
	if len(in.all.ref.rows) < 100 {
		t.Fatalf("only %d reads with rows", len(in.all.ref.rows))
	}

	check := new(csvCheck)
	check.reset(in.all.ref)
	if _, err := check.Write(clean.Bytes()); err != nil {
		t.Fatal(err)
	}
	if n := check.failed(); n != 0 {
		t.Fatalf("clean stream: %d failed", n)
	}

	// A digit flipped inside a row (to another digit), as the stream passes
	// through the writer the map legs hand to the pipeline.
	at := clean.Len()/2 + bytes.IndexByte(clean.Bytes()[clean.Len()/2:], ',') + 1
	check.reset(in.all.ref)
	mapThrough(t, in, &corrupter{next: check, at: at})
	if n := check.failed(); n != 1 {
		t.Errorf("one corrupted row: %d failed, want 1", n)
	}

	lines := bytes.SplitAfter(clean.Bytes(), []byte("\n"))
	feed := func(ls [][]byte) int {
		check.reset(in.all.ref)
		for _, l := range ls {
			check.Write(l)
		}
		return check.failed()
	}
	// A read's rows missing.
	mid := len(lines) / 2
	if n := feed(append(append([][]byte{}, lines[:mid]...), lines[mid+1:]...)); n == 0 {
		t.Error("dropped row not detected")
	}
	// Two reads swapped.
	swapped := append([][]byte{}, lines...)
	a, b := 5, len(lines)-5
	for bytes.Equal(readName(swapped[a]), readName(swapped[a+1])) {
		a++
	}
	swapped[a], swapped[b] = swapped[b], swapped[a]
	if n := feed(swapped); n == 0 {
		t.Error("reordered rows not detected")
	}
	// A truncated final row.
	if n := feed(append(append([][]byte{}, lines[:len(lines)-2]...), lines[len(lines)-2][:10])); n == 0 {
		t.Error("truncated stream not detected")
	}
	// A bad header.
	if n := feed(append([][]byte{[]byte("read,node\n")}, lines[1:]...)); n != 1 {
		t.Errorf("bad header: %d failed, want 1", n)
	}
}

func readName(line []byte) []byte {
	if i := bytes.IndexByte(line, ','); i >= 0 {
		return line[:i]
	}
	return line
}

func TestServeCheck(t *testing.T) {
	in := smallInputs(t)
	c := newClient("http://unused", 1, in, nil)
	defer c.close()
	const group = 3
	resp := serve.MapResponse{Reads: readsPerReq}
	for j := 0; j < readsPerReq; j++ {
		idx := group*readsPerReq + j
		wr := serve.WireResult{Read: in.reads[idx].Name + "~42"}
		for _, w := range in.all.ref.exts[idx] {
			strand := "+"
			if w.rev {
				strand = "-"
			}
			wr.Extensions = append(wr.Extensions, serve.WireExtension{
				Node: w.node, Offset: w.offset, Strand: strand, ReadStart: w.readStart,
				ReadEnd: w.readEnd, Score: w.score, Mismatches: w.mismatches,
			})
		}
		resp.Results = append(resp.Results, wr)
	}
	sampleOf := func(r serve.MapResponse, status int) sample {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		now := time.Now()
		return sample{due: now, sent: now, done: now, status: status, body: b, group: group}
	}
	if good := sampleOf(resp, 200); !c.ok(&good) {
		t.Fatal("correct response rejected")
	}
	bad := []sample{sampleOf(resp, 500)}
	corrupt := resp
	corrupt.Results = append([]serve.WireResult(nil), resp.Results...)
	for j := range corrupt.Results {
		if len(corrupt.Results[j].Extensions) > 0 {
			e := append([]serve.WireExtension(nil), corrupt.Results[j].Extensions...)
			e[0].Score++
			corrupt.Results[j].Extensions = e
			break
		}
	}
	bad = append(bad, sampleOf(corrupt, 200))
	wrongGroup := sampleOf(resp, 200)
	wrongGroup.group = group + 1
	bad = append(bad, wrongGroup)
	if n := c.check(bad); n != len(bad) {
		t.Errorf("%d of %d bad responses counted as failed", n, len(bad))
	}
}

func TestSplitWireName(t *testing.T) {
	name, req, ok := splitWireName("A-human.12~345")
	if !ok || name != "A-human.12" || req != 345 {
		t.Errorf("got %q %d %v", name, req, ok)
	}
	if _, _, ok := splitWireName("plain~x1"); ok {
		t.Error("non-numeric suffix accepted")
	}
}

// TestLegs runs every leg once on a small workload, traced and untraced,
// and expects every output to match the reference.
func TestLegs(t *testing.T) {
	in := smallInputs(t)
	l, err := load(in, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	for _, r := range []*recorder{nil, rec} {
		for _, minIx := range []*minimizer.Index{nil, l.ix.MinIx} {
			leg := &mapLeg{m: l.m, minIx: minIx, workers: 2, check: new(csvCheck), rec: r}
			p, err := leg.pass(&in.all)
			if err != nil {
				t.Fatal(err)
			}
			if p.failed != 0 || p.reads != len(in.reads) {
				t.Errorf("map pass (traced=%v, fastq=%v): %d failed, %d reads", r != nil, minIx != nil, p.failed, p.reads)
			}
			setups := 0
			full, lone, err := mapTurns(leg, in, 0, 1, func() error { setups++; return nil })
			if err != nil {
				t.Fatal(err)
			}
			if full.failed != 0 || lone.failed != 0 || full.attempts != 2*len(in.reads) || len(lone.passes) == 0 || setups != 2 {
				t.Errorf("turns (traced=%v, fastq=%v): %d of %d failed, %d of %d lone batches failed, %d set-ups",
					r != nil, minIx != nil, full.failed, full.attempts, lone.failed, lone.attempts, setups)
			}
		}
		srv, err := startServer(l, 2, r)
		if err != nil {
			t.Fatal(err)
		}
		c := newClient(srv.url, 2, in, r)
		sv, err := runServe(c, time.Second, false, nil)
		c.close()
		if cerr := srv.close(); cerr != nil {
			t.Error(cerr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if sv.failed != 0 || len(sv.light) == 0 || len(sv.heavy) == 0 || len(sv.sat) == 0 {
			t.Errorf("serve (traced=%v): %d of %d failed, phases %d/%d/%d",
				r != nil, sv.failed, sv.attempts, len(sv.light), len(sv.heavy), len(sv.sat))
		}
	}
	lc, err := layerPass(l, in, new(csvCheck), rec)
	if err != nil {
		t.Fatal(err)
	}
	if lc.failed != 0 || lc.reads != len(in.reads) {
		t.Errorf("layer pass: %d failed, %d reads", lc.failed, lc.reads)
	}
	self := selfTimes(rec.snapshot())
	for k := spanKind(0); k < numSpanKinds; k++ {
		if self[k].count == 0 {
			t.Errorf("no %s spans", k)
		}
	}
	// Every server-side span hangs off a client request.
	for _, s := range rec.snapshot() {
		if (s.kind == spanExtract || s.kind == spanSubBatch) && s.parent == 0 {
			t.Fatalf("%s span without a request parent", s.kind)
		}
	}
}
