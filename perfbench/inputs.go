package main

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/extend"
	"repro/internal/fastq"
	"repro/internal/gbz"
	"repro/internal/seeds"
	"repro/internal/workload"
)

// The three workloads. Why each exists, and which layers it loads or
// bypasses, is recorded in BENCHMARK.json and README.md.
const (
	wlMapSeeds = "map-seeds"
	wlMapFASTQ = "map-fastq-zipf"
	wlServe    = "serve-open"
)

var workloadNames = []string{wlMapSeeds, wlMapFASTQ, wlServe}

// Fixed program configuration: the mapper and pipeline run 2 workers with
// Giraffe's batch size and CachedGBWT capacity; the serve client holds at
// most 2 connections. Workers and connections are further capped at
// GOMAXPROCS in main.
const (
	inputScale    = 20  // A-human at scale 20: 30,000 reads of 148 bp
	zipfS         = 1.4 // read-start skew of map-fastq-zipf (as results/baseline-zipf)
	batchSize     = 512
	cacheCapacity = 256
	readsPerReq   = 16
)

// spec returns the generator spec of a workload at the given seed.
func spec(name string, seed int64) workload.Spec {
	s := workload.AHuman().Scaled(inputScale)
	s.Seed = seed
	if name == wlMapFASTQ {
		s.ZipfS = zipfS
	}
	return s
}

// part is a stretch of a workload as the bytes the program is handed, with
// its reference: the whole workload, or one 512-read batch of it.
type part struct {
	seeds []byte // captured seeds (.bin, format version 1)
	fastq []byte // the same reads as FASTQ
	ref   *reference
}

// inputs are one workload's generated bytes — the only thing the program
// under test is handed — plus the references its outputs are checked
// against.
type inputs struct {
	gbz     []byte // the pangenome as a GBZ file
	all     part
	batches []part // all, cut at every batchSize reads
	reads   []dna.Read
}

// makeInputs generates the workload for spec and computes its reference with
// core.Run over the captured records, outside every timed region.
func makeInputs(s workload.Spec, workers int) (*inputs, error) {
	b, err := workload.Generate(s)
	if err != nil {
		return nil, err
	}
	recs, err := b.CaptureSeeds()
	if err != nil {
		return nil, err
	}
	res, err := core.Run(b.GBZ(), recs, core.Options{Threads: workers, BatchSize: batchSize, CacheCapacity: cacheCapacity})
	if err != nil {
		return nil, fmt.Errorf("computing reference: %w", err)
	}
	in := &inputs{reads: b.Reads}
	var buf bytes.Buffer
	if err := gbz.Write(&buf, b.GBZ()); err != nil {
		return nil, fmt.Errorf("serialising GBZ: %w", err)
	}
	in.gbz = bytes.Clone(buf.Bytes())
	if in.all, err = newPart(recs, res.Extensions); err != nil {
		return nil, err
	}
	for lo := 0; lo < len(recs); lo += batchSize {
		hi := min(lo+batchSize, len(recs))
		p, err := newPart(recs[lo:hi], res.Extensions[lo:hi])
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, p)
	}
	return in, nil
}

func newPart(recs []seeds.ReadSeeds, exts [][]extend.Extension) (part, error) {
	var p part
	var buf bytes.Buffer
	w, err := seeds.NewWriter(&buf, len(recs))
	if err != nil {
		return p, err
	}
	reads := make([]dna.Read, len(recs))
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			return p, fmt.Errorf("serialising seeds: %w", err)
		}
		reads[i] = recs[i].Read
	}
	if err := w.Close(); err != nil {
		return p, fmt.Errorf("serialising seeds: %w", err)
	}
	p.seeds = bytes.Clone(buf.Bytes())
	buf.Reset()
	if err := fastq.Write(&buf, reads); err != nil {
		return p, fmt.Errorf("serialising FASTQ: %w", err)
	}
	p.fastq = bytes.Clone(buf.Bytes())
	p.ref, err = newReference(recs, exts)
	return p, err
}

// readDigest identifies one read's CSV rows: the FNV-1a hash of its name and
// of the rows' bytes, newlines included.
type readDigest struct {
	name, rows uint64
}

// reference is the expected output of a workload.
type reference struct {
	header []byte
	reads  int
	rows   []readDigest   // workload order; reads without rows are absent
	pos    map[uint64]int // name hash → index in rows
	exts   [][]wantExt    // per read, in workload order
	byName map[string]int // read name → workload index
}

// wantExt is the part of an extend.Extension that the serve API returns.
// The reference keeps its own copy: extensions share backing arrays with
// the kernel's per-read buffers, which would otherwise stay live and skew
// the garbage collector's pacing in every measured leg.
type wantExt struct {
	node                      uint32
	offset                    int32
	rev                       bool
	readStart, readEnd, score int32
	mismatches                []int32
}

func newReference(recs []seeds.ReadSeeds, exts [][]extend.Extension) (*reference, error) {
	var buf bytes.Buffer
	if err := core.WriteCSVHeader(&buf); err != nil {
		return nil, err
	}
	ref := &reference{
		header: bytes.Clone(buf.Bytes()),
		reads:  len(recs),
		pos:    make(map[uint64]int, len(recs)),
		exts:   make([][]wantExt, len(recs)),
		byName: make(map[string]int, len(recs)),
	}
	for i := range recs {
		for _, e := range exts[i] {
			ref.exts[i] = append(ref.exts[i], wantExt{
				node: uint32(e.StartPos.Node), offset: e.StartPos.Off, rev: e.Rev,
				readStart: e.ReadStart, readEnd: e.ReadEnd, score: e.Score,
				mismatches: append([]int32(nil), e.Mismatches...),
			})
		}
		ref.byName[recs[i].Read.Name] = i
		buf.Reset()
		if err := core.WriteCSVRecord(&buf, &recs[i], exts[i]); err != nil {
			return nil, err
		}
		if buf.Len() == 0 {
			continue
		}
		d := readDigest{name: fnv(fnvOffset, []byte(recs[i].Read.Name)), rows: fnv(fnvOffset, buf.Bytes())}
		ref.pos[d.name] = len(ref.rows)
		ref.rows = append(ref.rows, d)
	}
	return ref, nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnv(h uint64, p []byte) uint64 {
	for _, c := range p {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// csvCheck is the hashing writer the map legs write their CSV into. It
// digests the stream read by read as it arrives, so a whole pass never sits
// in memory, and failed compares the digests with the reference.
type csvCheck struct {
	ref       *reference
	line      []byte // a row split across writes
	sawHeader bool
	badHeader bool
	cur       readDigest
	open      bool
	got       []readDigest
}

// reset readies the checker for a pass whose expected output is ref.
func (c *csvCheck) reset(ref *reference) {
	c.ref = ref
	c.line = c.line[:0]
	c.sawHeader, c.badHeader, c.open = false, false, false
	c.got = c.got[:0]
}

// Write implements io.Writer.
func (c *csvCheck) Write(p []byte) (int, error) {
	n := len(p)
	if len(c.line) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			c.line = append(c.line, p...)
			return n, nil
		}
		c.line = append(c.line, p[:i+1]...)
		c.row(c.line)
		c.line = c.line[:0]
		p = p[i+1:]
	}
	for {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			c.line = append(c.line, p...)
			return n, nil
		}
		c.row(p[:i+1])
		p = p[i+1:]
	}
}

// row digests one complete line.
func (c *csvCheck) row(line []byte) {
	if !c.sawHeader {
		c.sawHeader = true
		c.badHeader = !bytes.Equal(line, c.ref.header)
		return
	}
	name := line
	if i := bytes.IndexByte(line, ','); i >= 0 {
		name = line[:i]
	}
	h := fnv(fnvOffset, name)
	if !c.open || h != c.cur.name {
		c.flush()
		c.cur, c.open = readDigest{name: h, rows: fnvOffset}, true
	}
	c.cur.rows = fnv(c.cur.rows, line)
}

func (c *csvCheck) flush() {
	if c.open {
		c.got = append(c.got, c.cur)
		c.open = false
	}
}

// failed ends the pass and counts the reads whose rows differ from the
// reference: wrong or missing rows, rows for an unknown read, a read whose
// rows are split or out of workload order. A bad header or a truncated last
// row counts as one more failure.
func (c *csvCheck) failed() int {
	c.flush()
	bad := 0
	if !c.sawHeader || c.badHeader || len(c.line) > 0 {
		bad++
	}
	seen := make(map[uint64]bool, len(c.got))
	prev := -1
	for _, d := range c.got {
		i, known := c.ref.pos[d.name]
		switch {
		case !known, seen[d.name], i <= prev, c.ref.rows[i].rows != d.rows:
			bad++
		}
		seen[d.name] = true
		if known && i > prev {
			prev = i
		}
	}
	for _, d := range c.ref.rows {
		if !seen[d.name] {
			bad++
		}
	}
	return bad
}

// splitWireName splits a read name as the serve client sends it,
// "<name>~<request id>", so the traced run can attribute server-side spans
// to the client request that carries the read.
func splitWireName(s string) (name string, req int64, ok bool) {
	i := strings.LastIndexByte(s, '~')
	if i < 0 {
		return s, 0, false
	}
	var v int64
	for _, c := range s[i+1:] {
		if c < '0' || c > '9' {
			return s, 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return s[:i], v, true
}
