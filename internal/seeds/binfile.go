package seeds

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/dna"
	"repro/internal/vgraph"
)

// Binary capture format ("sequence-seeds.bin"), the proxy's main input.
//
//	magic "MGSB" (4 bytes), version uint16 LE, reserved uint16
//	count uint64 LE
//	per record (varints unless noted):
//	    nameLen, name bytes
//	    fragment+1 (0 = single-end), end
//	    seqLen, packed 2-bit bases
//	    numSeeds
//	    per seed: node, off, readOff, flags (bit0 = rev), score float32 LE
//
// Version 2 is the streaming variant for capture paths that do not know the
// record count up front (e.g. an emulator capturing while it maps): the
// header count field is written as zero and ignored, records stream as in
// version 1, and the file ends with a footer — the sentinel value 2^64-1
// where the next record's nameLen varint would be, followed by the actual
// record count as uint64 LE so readers can verify the stream is complete.
var (
	binMagic   = [4]byte{'M', 'G', 'S', 'B'}
	binVersion = uint16(1)
	// binVersionStream marks the count-free footer variant.
	binVersionStream = uint16(2)
	// streamEndSentinel terminates a version-2 record stream. It can never
	// begin a real record: name lengths are capped far below it.
	streamEndSentinel = ^uint64(0)
)

// Errors reported by the reader.
var (
	ErrBadMagic   = errors.New("seeds: bad magic")
	ErrBadVersion = errors.New("seeds: unsupported version")
)

// Writer streams ReadSeeds records to an output.
type Writer struct {
	bw      *bufio.Writer
	scratch [binary.MaxVarintLen64]byte
	n       uint64
	counted uint64
	stream  bool
	err     error
}

// NewWriter writes the header for `count` records and returns the streaming
// writer.
func NewWriter(w io.Writer, count int) (*Writer, error) {
	return newWriter(w, binVersion, uint64(count))
}

// NewStreamWriter returns a version-2 writer that does not need the record
// count up front: records are appended until Close, which writes the
// end-of-stream footer carrying the actual count. Use it on capture paths
// that produce records incrementally.
func NewStreamWriter(w io.Writer) (*Writer, error) {
	return newWriter(w, binVersionStream, 0)
}

func newWriter(w io.Writer, version uint16, count uint64) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binMagic[:]); err != nil {
		return nil, err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint16(hdr[0:], version)
	binary.LittleEndian.PutUint64(hdr[4:], count)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{bw: bw, n: count, stream: version == binVersionStream}, nil
}

func (w *Writer) put(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.scratch[:], v)
	_, w.err = w.bw.Write(w.scratch[:n])
}

func (w *Writer) write(b []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.bw.Write(b)
}

// Write appends one record.
func (w *Writer) Write(rs *ReadSeeds) error {
	if w.err != nil {
		return w.err
	}
	if !w.stream && w.counted >= w.n {
		w.err = fmt.Errorf("seeds: writing more than the declared %d records", w.n)
		return w.err
	}
	w.counted++
	w.put(uint64(len(rs.Read.Name)))
	w.write([]byte(rs.Read.Name))
	w.put(uint64(rs.Read.Fragment + 1))
	w.put(uint64(rs.Read.End))
	packed := dna.Pack(rs.Read.Seq)
	data, n := packed.Raw()
	w.put(uint64(n))
	w.write(data)
	w.put(uint64(len(rs.Seeds)))
	for _, s := range rs.Seeds {
		w.put(uint64(s.Pos.Node))
		w.put(uint64(s.Pos.Off))
		w.put(uint64(s.ReadOff))
		flags := uint64(0)
		if s.Rev {
			flags = 1
		}
		w.put(flags)
		var f [4]byte
		binary.LittleEndian.PutUint32(f[:], math.Float32bits(s.Score))
		w.write(f[:])
	}
	return w.err
}

// Close flushes the stream. Count-up-front writers verify the declared
// record count; stream writers append the end-of-stream footer instead.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.stream {
		w.put(streamEndSentinel)
		var cnt [8]byte
		binary.LittleEndian.PutUint64(cnt[:], w.counted)
		w.write(cnt[:])
		if w.err != nil {
			return w.err
		}
	} else if w.counted != w.n {
		return fmt.Errorf("seeds: wrote %d of %d declared records", w.counted, w.n)
	}
	return w.bw.Flush()
}

// Reader streams ReadSeeds records from an input. It accepts both the
// count-up-front version 1 and the footer-terminated streaming version 2.
type Reader struct {
	br        *bufio.Reader
	remaining uint64
	stream    bool // version 2: remaining is unknown until the footer
	done      bool
	read      uint64
	buf       []byte  // name and packed-base bytes, reused across records
	score     [4]byte // one seed's score bytes
}

// NewReader validates the header and returns a streaming reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("seeds: reading magic: %w", err)
	}
	if magic != binMagic {
		return nil, ErrBadMagic
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("seeds: reading header: %w", err)
	}
	switch v := binary.LittleEndian.Uint16(hdr[0:]); v {
	case binVersion:
		// The declared count feeds Remaining()'s int result; a count no real
		// capture can hold (each record is several bytes) is corruption, and
		// letting it through would overflow Remaining negative.
		count := binary.LittleEndian.Uint64(hdr[4:])
		if count > 1<<56 {
			return nil, fmt.Errorf("seeds: implausible record count %d", count)
		}
		return &Reader{br: br, remaining: count}, nil
	case binVersionStream:
		return &Reader{br: br, stream: true}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
}

// Remaining returns how many records are left, or -1 when the stream is a
// version-2 capture whose count is only known once the footer is reached.
func (r *Reader) Remaining() int {
	if r.stream {
		if r.done {
			return 0
		}
		return -1
	}
	return int(r.remaining)
}

// noCleanEOF converts a clean io.EOF into io.ErrUnexpectedEOF: inside a
// record, running out of bytes is a truncation, not an end of stream.
func noCleanEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// bytes returns the reader's reusable buffer resized to n bytes.
func (r *Reader) bytes(n int) []byte {
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	return r.buf[:n]
}

// Next reads the next record, or io.EOF after the last one.
func (r *Reader) Next() (*ReadSeeds, error) {
	if r.done || (!r.stream && r.remaining == 0) {
		return nil, io.EOF
	}
	if !r.stream {
		r.remaining--
	}
	get := func() (uint64, error) { return binary.ReadUvarint(r.br) }
	nameLen, err := get()
	if err != nil {
		return nil, fmt.Errorf("seeds: name length: %w", err)
	}
	if r.stream && nameLen == streamEndSentinel {
		// End-of-stream footer: verify the trailing count.
		var cnt [8]byte
		if _, err := io.ReadFull(r.br, cnt[:]); err != nil {
			return nil, fmt.Errorf("seeds: stream footer: %w", err)
		}
		if n := binary.LittleEndian.Uint64(cnt[:]); n != r.read {
			return nil, fmt.Errorf("seeds: stream footer declares %d records, read %d", n, r.read)
		}
		r.done = true
		return nil, io.EOF
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("seeds: implausible name length %d", nameLen)
	}
	// From here on the record has started: a clean EOF from the underlying
	// reader is a truncation, and must surface as an error — never as the
	// bare io.EOF that callers read as a complete stream (and that would
	// leave a v2 Reader's Remaining() stuck at -1).
	name := r.bytes(int(nameLen))
	if _, err := io.ReadFull(r.br, name); err != nil {
		return nil, fmt.Errorf("seeds: name: %w", noCleanEOF(err))
	}
	nameStr := string(name)
	fragP1, err := get()
	if err != nil {
		return nil, fmt.Errorf("seeds: fragment: %w", noCleanEOF(err))
	}
	end, err := get()
	if err != nil {
		return nil, fmt.Errorf("seeds: end: %w", noCleanEOF(err))
	}
	seqLen, err := get()
	if err != nil {
		return nil, fmt.Errorf("seeds: read length: %w", noCleanEOF(err))
	}
	if seqLen > 1<<20 {
		return nil, fmt.Errorf("seeds: implausible read length %d", seqLen)
	}
	// The packed bases only live until Unpack copies them out.
	data := r.bytes(int(seqLen+3) / 4)
	if _, err := io.ReadFull(r.br, data); err != nil {
		return nil, fmt.Errorf("seeds: bases: %w", noCleanEOF(err))
	}
	packed, err := dna.PackedFromRaw(data, int(seqLen))
	if err != nil {
		return nil, err
	}
	nSeeds, err := get()
	if err != nil {
		return nil, fmt.Errorf("seeds: seed count: %w", noCleanEOF(err))
	}
	if nSeeds > 1<<24 {
		return nil, fmt.Errorf("seeds: implausible seed count %d", nSeeds)
	}
	// Preallocate from the declared count only up to a modest bound: a
	// corrupt or hostile count must not translate into a huge allocation
	// before any seed bytes have been read.
	capHint := nSeeds
	if capHint > 4096 {
		capHint = 4096
	}
	rs := &ReadSeeds{
		Read: dna.Read{
			Name:     nameStr,
			Seq:      packed.Unpack(),
			Fragment: int(fragP1) - 1,
			End:      int(end),
		},
		Seeds: make([]Seed, 0, capHint),
	}
	for i := 0; i < int(nSeeds); i++ {
		node, err := get()
		if err != nil {
			return nil, fmt.Errorf("seeds: seed %d node: %w", i, noCleanEOF(err))
		}
		off, err := get()
		if err != nil {
			return nil, fmt.Errorf("seeds: seed %d offset: %w", i, noCleanEOF(err))
		}
		readOff, err := get()
		if err != nil {
			return nil, fmt.Errorf("seeds: seed %d read offset: %w", i, noCleanEOF(err))
		}
		flags, err := get()
		if err != nil {
			return nil, fmt.Errorf("seeds: seed %d flags: %w", i, noCleanEOF(err))
		}
		if _, err := io.ReadFull(r.br, r.score[:]); err != nil {
			return nil, fmt.Errorf("seeds: seed %d score: %w", i, noCleanEOF(err))
		}
		rs.Seeds = append(rs.Seeds, Seed{
			Pos:     vgraph.Position{Node: vgraph.NodeID(node), Off: int32(off)},
			ReadOff: int32(readOff),
			Rev:     flags&1 != 0,
			Score:   math.Float32frombits(binary.LittleEndian.Uint32(r.score[:])),
		})
	}
	r.read++
	return rs, nil
}

// WriteFile saves all records to a file at path.
func WriteFile(path string, records []ReadSeeds) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := NewWriter(out, len(records))
	if err != nil {
		out.Close()
		return err
	}
	for i := range records {
		if err := w.Write(&records[i]); err != nil {
			out.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// File is a ReadSeeds stream backed by an open file: the incremental input
// the streaming pipeline consumes record by record, so the workload is never
// materialized in memory. Close it when done.
type File struct {
	*Reader
	f *os.File
}

// Open validates the header of the capture file at path and returns the
// incremental reader over its records.
func Open(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(in)
	if err != nil {
		in.Close()
		return nil, err
	}
	return &File{Reader: r, f: in}, nil
}

// Close releases the underlying file.
func (f *File) Close() error { return f.f.Close() }

// ReadFile loads all records from a file at path.
func ReadFile(path string) ([]ReadSeeds, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	r, err := NewReader(in)
	if err != nil {
		return nil, err
	}
	// The v1 header count is untrusted input — use it as a capacity hint
	// only within a modest bound.
	capHint := r.Remaining()
	if capHint < 0 {
		capHint = 0
	} else if capHint > 1<<16 {
		capHint = 1 << 16
	}
	out := make([]ReadSeeds, 0, capHint)
	for {
		rs, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		out = append(out, *rs)
	}
	return out, nil
}
