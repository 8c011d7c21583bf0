package seeds

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dna"
	"repro/internal/minimizer"
	"repro/internal/vgraph"
)

func randomSeq(n int, seed int64) dna.Sequence {
	rng := rand.New(rand.NewSource(seed))
	s := make(dna.Sequence, n)
	for i := range s {
		s[i] = dna.Base(rng.Intn(4))
	}
	return s
}

func sampleRecords(seed int64, n int) []ReadSeeds {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ReadSeeds, n)
	for i := range out {
		nSeeds := rng.Intn(6)
		ss := make([]Seed, nSeeds)
		for j := range ss {
			ss[j] = Seed{
				Pos:     vgraph.Position{Node: vgraph.NodeID(1 + rng.Intn(1000)), Off: int32(rng.Intn(30))},
				ReadOff: int32(rng.Intn(120)),
				Rev:     rng.Intn(2) == 1,
				Score:   float32(1 + rng.Float64()*5),
			}
		}
		frag := -1
		end := 0
		if rng.Intn(2) == 1 {
			frag = rng.Intn(500)
			end = rng.Intn(2)
		}
		out[i] = ReadSeeds{
			Read: dna.Read{
				Name:     "read-" + string(rune('a'+i%26)),
				Seq:      randomSeq(80+rng.Intn(70), seed+int64(i)),
				Fragment: frag,
				End:      end,
			},
			Seeds: ss,
		}
	}
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	recs := sampleRecords(1, 25)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, len(recs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != len(recs) {
		t.Fatalf("Remaining = %d, want %d", r.Remaining(), len(recs))
	}
	for i := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		if got.Read.Name != recs[i].Read.Name ||
			got.Read.Fragment != recs[i].Read.Fragment ||
			got.Read.End != recs[i].Read.End {
			t.Fatalf("record %d metadata mismatch: %+v vs %+v", i, got.Read, recs[i].Read)
		}
		if !got.Read.Seq.Equal(recs[i].Read.Seq) {
			t.Fatalf("record %d sequence mismatch", i)
		}
		if len(got.Seeds) != len(recs[i].Seeds) {
			t.Fatalf("record %d: %d seeds, want %d", i, len(got.Seeds), len(recs[i].Seeds))
		}
		if len(got.Seeds) > 0 && !reflect.DeepEqual(got.Seeds, recs[i].Seeds) {
			t.Fatalf("record %d seeds mismatch", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after last record: err = %v, want io.EOF", err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	recs := sampleRecords(2, 10)
	path := filepath.Join(t.TempDir(), "seeds.bin")
	if err := WriteFile(path, recs); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !got[i].Read.Seq.Equal(recs[i].Read.Seq) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestWriterCountEnforced(t *testing.T) {
	recs := sampleRecords(3, 2)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&recs[1]); err == nil {
		t.Error("over-count write accepted")
	}
	// Under-count close.
	var buf2 bytes.Buffer
	w2, err := NewWriter(&buf2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err == nil {
		t.Error("under-count close accepted")
	}
}

func TestStreamRoundTrip(t *testing.T) {
	recs := sampleRecords(7, 25)
	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != -1 {
		t.Fatalf("Remaining before footer = %d, want -1 (unknown)", r.Remaining())
	}
	for i := range recs {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		if got.Read.Name != recs[i].Read.Name ||
			got.Read.Fragment != recs[i].Read.Fragment ||
			got.Read.End != recs[i].Read.End {
			t.Fatalf("record %d metadata mismatch: %+v vs %+v", i, got.Read, recs[i].Read)
		}
		if !got.Read.Seq.Equal(recs[i].Read.Seq) {
			t.Fatalf("record %d sequence mismatch", i)
		}
		if len(got.Seeds) > 0 && !reflect.DeepEqual(got.Seeds, recs[i].Seeds) {
			t.Fatalf("record %d seeds mismatch", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last record: err = %v, want io.EOF", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining after footer = %d, want 0", r.Remaining())
	}
	// Repeated Next after the footer stays io.EOF.
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("second Next after footer: err = %v, want io.EOF", err)
	}
}

func TestStreamEmpty(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestStreamFooterVerified(t *testing.T) {
	recs := sampleRecords(8, 3)
	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Corrupt the footer count (last 8 bytes) and expect a mismatch error.
	corrupt := append([]byte{}, data...)
	corrupt[len(corrupt)-1] ^= 0xFF
	r, err := NewReader(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for {
		if _, lastErr = r.Next(); lastErr != nil {
			break
		}
	}
	if lastErr == io.EOF || lastErr == nil {
		t.Error("corrupted footer count not detected")
	}

	// Truncate inside the footer: the reader must error, not report EOF.
	r2, err := NewReader(bytes.NewReader(data[:len(data)-4]))
	if err != nil {
		t.Fatal(err)
	}
	for lastErr = nil; lastErr == nil; {
		_, lastErr = r2.Next()
	}
	if lastErr == io.EOF {
		t.Error("truncated footer read as clean EOF")
	}
}

func TestReadFileStreamVariant(t *testing.T) {
	recs := sampleRecords(9, 6)
	path := filepath.Join(t.TempDir(), "stream.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewStreamWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !got[i].Read.Seq.Equal(recs[i].Read.Seq) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX0123456789ab"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
	bad := append([]byte{}, binMagic[:]...)
	bad = append(bad, 0xFF, 0xFF, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)
	if _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestReaderTruncated(t *testing.T) {
	recs := sampleRecords(4, 5)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, len(recs))
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-10]))
	if err != nil {
		t.Fatal(err)
	}
	sawErr := false
	for i := 0; i < len(recs); i++ {
		if _, err := r.Next(); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Error("truncated stream read without error")
	}
}

// TestReaderTruncatedInRecord cuts a one-record capture exactly where the
// name, the packed bases, and a seed's score begin. A clean EOF there is a
// truncation: Next must report io.ErrUnexpectedEOF, never anything that
// errors.Is reads as io.EOF.
func TestReaderTruncatedInRecord(t *testing.T) {
	rec := ReadSeeds{
		Read: dna.Read{Name: "r1", Seq: randomSeq(30, 3), Fragment: -1},
		Seeds: []Seed{
			{Pos: vgraph.Position{Node: 7, Off: 2}, ReadOff: 4, Score: 1.5},
			{Pos: vgraph.Position{Node: 9, Off: 0}, ReadOff: 11, Rev: true, Score: 2},
		},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Walk the record layout to the three offsets.
	uv := func(v uint64) int { return len(binary.AppendUvarint(nil, v)) }
	nameAt := 16 + uv(uint64(len(rec.Read.Name)))
	basesAt := nameAt + len(rec.Read.Name) + uv(0) + uv(0) + uv(uint64(len(rec.Read.Seq)))
	scoreAt := basesAt + (len(rec.Read.Seq)+3)/4 + uv(uint64(len(rec.Seeds)))
	s0 := rec.Seeds[0]
	scoreAt += uv(uint64(s0.Pos.Node)) + uv(uint64(s0.Pos.Off)) + uv(uint64(s0.ReadOff)) + uv(0)

	for _, cut := range []struct {
		name string
		at   int
	}{{"name", nameAt}, {"bases", basesAt}, {"score", scoreAt}} {
		r, err := NewReader(bytes.NewReader(data[:cut.at]))
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Next()
		if errors.Is(err, io.EOF) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %s (byte %d): err = %v, want a wrapped io.ErrUnexpectedEOF", cut.name, cut.at, err)
		}
	}
	// The layout walk lands where claimed: the untruncated capture decodes.
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.Next(); err != nil || !reflect.DeepEqual(*got, rec) {
		t.Fatalf("full capture: %+v, %v", got, err)
	}
}

// TestReaderNextAllocs bounds a record's decode cost: the name, the bases,
// the record and its seed slice — nothing per seed.
func TestReaderNextAllocs(t *testing.T) {
	recs := sampleRecords(5, 1)
	recs[0].Seeds = make([]Seed, 40)
	var buf bytes.Buffer
	w, _ := NewStreamWriter(&buf)
	for i := 0; i < 200; i++ {
		if err := w.Write(&recs[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("Next allocates %.1f times per 40-seed record, want at most 4", allocs)
	}
}

// TestExtractOrientation plants a read and its reverse complement and checks
// seed normalisation maps both onto the same graph positions.
func TestExtractOrientation(t *testing.T) {
	cfg := minimizer.Config{K: 13, W: 7}
	refLen := 600
	ref := randomSeq(refLen, 9)
	g := &vgraph.Graph{}
	var path []vgraph.NodeID
	for i := 0; i < refLen; i += 20 {
		end := i + 20
		if end > refLen {
			end = refLen
		}
		id, err := g.AddNode(ref[i:end].Clone())
		if err != nil {
			t.Fatal(err)
		}
		if len(path) > 0 {
			if err := g.AddEdge(path[len(path)-1], id); err != nil {
				t.Fatal(err)
			}
		}
		path = append(path, id)
	}
	ix, err := minimizer.Build(g, [][]vgraph.NodeID{path}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fwdRead := &dna.Read{Name: "f", Seq: ref[100:220].Clone(), Fragment: -1}
	revRead := &dna.Read{Name: "r", Seq: ref[100:220].RevComp(), Fragment: -1}
	fwdSeeds, err := Extract(ix, fwdRead)
	if err != nil {
		t.Fatal(err)
	}
	revSeeds, err := Extract(ix, revRead)
	if err != nil {
		t.Fatal(err)
	}
	if len(fwdSeeds) == 0 {
		t.Fatal("no forward seeds")
	}
	if len(fwdSeeds) != len(revSeeds) {
		t.Fatalf("%d fwd seeds vs %d rev seeds", len(fwdSeeds), len(revSeeds))
	}
	// All forward seeds are Rev=false; all reverse-read seeds are Rev=true,
	// and after orientation the (Pos, ReadOff) pairs coincide.
	type anchor struct {
		pos     vgraph.Position
		readOff int32
	}
	fwdSet := map[anchor]bool{}
	for _, s := range fwdSeeds {
		if s.Rev {
			t.Errorf("forward read produced Rev seed %+v", s)
		}
		fwdSet[anchor{s.Pos, s.ReadOff}] = true
	}
	for _, s := range revSeeds {
		if !s.Rev {
			t.Errorf("reverse read produced forward seed %+v", s)
		}
		if !fwdSet[anchor{s.Pos, s.ReadOff}] {
			t.Errorf("reverse seed %+v has no forward counterpart", s)
		}
	}
}

func TestOpenIncremental(t *testing.T) {
	recs := sampleRecords(3, 5)
	path := filepath.Join(t.TempDir(), "seeds.bin")
	if err := WriteFile(path, recs); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	if f.Remaining() != len(recs) {
		t.Fatalf("Remaining = %d, want %d", f.Remaining(), len(recs))
	}
	for i := range recs {
		rs, err := f.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rs.Read.Name != recs[i].Read.Name || len(rs.Seeds) != len(recs[i].Seeds) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := f.Next(); err != io.EOF {
		t.Errorf("after last record: err = %v, want io.EOF", err)
	}
	if err := f.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(bad, []byte("not a capture"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Error("bad magic accepted")
	}
}
