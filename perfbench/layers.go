package main

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extend"
	"repro/internal/fastq"
	"repro/internal/gbwt"
	"repro/internal/giraffe"
	"repro/internal/pipeline"
	"repro/internal/seeds"
)

// layerCounts are the work counts the layer pass sees at its boundaries.
type layerCounts struct {
	reads, batches int
	seeds          int // from giraffe.Preprocess
	clusters       int
	extensions     int
	cache          gbwt.CacheStats
	failed         int
}

// layerPass maps the workload on one goroutine through the layers' public
// functions, in the order a pipeline worker runs them, recording a span
// around every call: per 512-read batch core.Mapper.NewReader, then per
// read seeds.Reader.Next, giraffe.Preprocess (on the same read, from the
// FASTQ bytes), cluster.ClusterSeeds, extend.ProcessUntilThresholdC and
// pipeline.CSVEmitter.Emit into the hashing writer. Records come from the
// captured seeds; both sources are checked to agree on every read.
func layerPass(l *loaded, in *inputs, check *csvCheck, rec *recorder) (layerCounts, error) {
	var c layerCounts
	reads, err := fastq.Read(bytes.NewReader(in.all.fastq))
	if err != nil {
		return c, fmt.Errorf("fastq.Read: %w", err)
	}
	sr, err := seeds.NewReader(bytes.NewReader(in.all.seeds))
	if err != nil {
		return c, fmt.Errorf("seeds.NewReader: %w", err)
	}
	check.reset(in.all.ref)
	em, err := pipeline.NewCSVEmitter(check)
	if err != nil {
		return c, err
	}
	opts := l.m.Options()
	passID, passStart := rec.newID(), rec.now()
	for base := 0; base < len(reads); base += batchSize {
		batchID, batchStart := rec.newID(), rec.now()
		t0 := rec.now()
		reader := l.m.NewReader(0)
		rec.add(rec.newID(), batchID, spanNewReader, t0, rec.now())
		env := &extend.Env{Graph: l.f.Graph, Bi: reader}
		for i := base; i < min(base+batchSize, len(reads)); i++ {
			readID, readStart := rec.newID(), rec.now()
			t0 := rec.now()
			r, err := sr.Next()
			rec.add(rec.newID(), readID, spanDecode, t0, rec.now())
			if err != nil {
				return c, fmt.Errorf("seeds.Reader.Next at read %d of %d: %w", i, len(reads), err)
			}
			t0 = rec.now()
			pre, err := giraffe.Preprocess(l.ix.MinIx, &reads[i])
			rec.add(rec.newID(), readID, spanPreprocess, t0, rec.now())
			if err != nil {
				return c, err
			}
			if pre.Read.Name != r.Read.Name || !sameSeeds(pre.Seeds, r.Seeds) {
				c.failed++
			}
			c.seeds += len(pre.Seeds)

			t0 = rec.now()
			cls := cluster.ClusterSeeds(l.ix.Dist, r.Seeds, opts.Cluster, nil, i)
			rec.add(rec.newID(), readID, spanCluster, t0, rec.now())
			t0 = rec.now()
			exts := extend.ProcessUntilThresholdC(env, &r.Read, r.Seeds, cls, opts.Extend, i)
			rec.add(rec.newID(), readID, spanExtend, t0, rec.now())
			t0 = rec.now()
			err = em.Emit(r, exts)
			rec.add(rec.newID(), readID, spanEmit, t0, rec.now())
			if err != nil {
				return c, err
			}
			c.clusters += len(cls)
			c.extensions += len(exts)
			c.reads++
			rec.add(readID, batchID, spanRead, readStart, rec.now())
		}
		c.cache.Add(core.ReaderCacheStats(reader))
		c.batches++
		rec.add(batchID, passID, spanBatch, batchStart, rec.now())
	}
	if _, err := sr.Next(); err != io.EOF {
		return c, fmt.Errorf("captured seeds hold more reads than the FASTQ (%v)", err)
	}
	rec.add(passID, 0, spanLayerPass, passStart, rec.now())
	if err := em.Flush(); err != nil {
		return c, err
	}
	c.failed += check.failed()
	return c, nil
}

func sameSeeds(a, b []seeds.Seed) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
