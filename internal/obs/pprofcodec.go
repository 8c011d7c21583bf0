package obs

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// A stdlib-only codec for the pprof protobuf profile format
// (github.com/google/pprof/proto/profile.proto), hand-rolled against the
// protobuf wire encoding so cmd/profdiff needs no third-party dependency.
// The codec is deliberately lossy where loss is safe: mapping tables and
// instruction addresses are dropped (profdiff aligns by symbol), but every
// frame — including inlined frames — survives a parse/encode round trip
// with its function, file, call-site line and start line intact.

// ValueType is one sample dimension, e.g. {cpu, nanoseconds}.
type ValueType struct {
	Type, Unit string
}

// Frame is one resolved stack frame. Inlined frames are expanded in order
// (innermost first), each carrying the call-site line and the enclosing
// function's start line — the pair PGO needs to compute call-site offsets.
type Frame struct {
	Func      string
	File      string
	Line      int64
	StartLine int64
}

// Label is one pprof sample label; Str is set for string labels, Num (with
// optional NumUnit) for numeric ones.
type Label struct {
	Key     string
	Str     string
	Num     int64
	NumUnit string
}

// Sample is one resolved profile sample: the stack (leaf first), one value
// per SampleTypes entry, and the goroutine labels active at capture.
type Sample struct {
	Stack  []Frame
	Values []int64
	Labels []Label
}

// Profile is a parsed pprof profile with string and symbol tables resolved
// away.
type Profile struct {
	SampleTypes   []ValueType
	PeriodType    ValueType
	Period        int64
	TimeNanos     int64
	DurationNanos int64
	Samples       []*Sample
}

// StageBreakdown sums the sample values at index vi per value of the given
// label key (e.g. LabelStage); samples without the key land under "".
func (p *Profile) StageBreakdown(key string, vi int) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range p.Samples {
		if vi >= len(s.Values) {
			continue
		}
		v := ""
		for _, l := range s.Labels {
			if l.Key == key && l.Str != "" {
				v = l.Str
				break
			}
		}
		out[v] += s.Values[vi]
	}
	return out
}

// ---------------------------------------------------------------------------
// Wire-format primitives.

const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
	wireFixed32 = 5
)

type pbuf struct {
	data []byte
	pos  int
}

func (b *pbuf) done() bool { return b.pos >= len(b.data) }

func (b *pbuf) uvarint() (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; ; i++ {
		if b.pos >= len(b.data) {
			return 0, io.ErrUnexpectedEOF
		}
		c := b.data[b.pos]
		b.pos++
		if i == 9 && c > 1 {
			return 0, fmt.Errorf("pprof: varint overflows uint64")
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
		shift += 7
	}
}

// field reads a tag, returning the field number and wire type.
func (b *pbuf) field() (int, int, error) {
	tag, err := b.uvarint()
	if err != nil {
		return 0, 0, err
	}
	return int(tag >> 3), int(tag & 7), nil
}

// bytesField reads a length-delimited payload.
func (b *pbuf) bytesField() ([]byte, error) {
	n, err := b.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b.data)-b.pos) {
		return nil, io.ErrUnexpectedEOF
	}
	p := b.data[b.pos : b.pos+int(n)]
	b.pos += int(n)
	return p, nil
}

func (b *pbuf) skip(wire int) error {
	switch wire {
	case wireVarint:
		_, err := b.uvarint()
		return err
	case wireFixed64:
		if len(b.data)-b.pos < 8 {
			return io.ErrUnexpectedEOF
		}
		b.pos += 8
		return nil
	case wireBytes:
		_, err := b.bytesField()
		return err
	case wireFixed32:
		if len(b.data)-b.pos < 4 {
			return io.ErrUnexpectedEOF
		}
		b.pos += 4
		return nil
	default:
		return fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
}

// repeatedUint64 appends one or more values for a repeated numeric field,
// handling both packed (wire type 2) and unpacked (wire type 0) encodings.
func repeatedUint64(b *pbuf, wire int, dst []uint64) ([]uint64, error) {
	if wire == wireVarint {
		v, err := b.uvarint()
		if err != nil {
			return nil, err
		}
		return append(dst, v), nil
	}
	if wire != wireBytes {
		return nil, fmt.Errorf("pprof: repeated field with wire type %d", wire)
	}
	payload, err := b.bytesField()
	if err != nil {
		return nil, err
	}
	pb := &pbuf{data: payload}
	for !pb.done() {
		v, err := pb.uvarint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// ---------------------------------------------------------------------------
// Parsing.

type pbRawLine struct {
	funcID uint64
	line   int64
}

type pbRawLocation struct {
	id    uint64
	lines []pbRawLine
}

type pbRawFunction struct {
	id         uint64
	name, file int64
	startLine  int64
}

type pbRawLabel struct {
	key, str, numUnit int64
	num               int64
}

type pbRawSample struct {
	locIDs []uint64
	values []int64
	labels []pbRawLabel
}

// ParsePProf decodes a pprof profile (gzipped or raw protobuf) into the
// resolved in-memory form.
func ParsePProf(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if err := zr.Close(); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		data = raw
	}

	var (
		strtab     []string
		sampleType []ValueType
		periodRaw  []byte
		samples    []pbRawSample
		locs       = map[uint64]pbRawLocation{}
		funcs      = map[uint64]pbRawFunction{}
		p          = &Profile{}
	)
	// String indices inside ValueType submessages can appear before the
	// string table has been read, so value types are held raw and resolved
	// after the single pass.
	var sampleTypeRaw [][]byte

	b := &pbuf{data: data}
	for !b.done() {
		num, wire, err := b.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			payload, err := b.bytesField()
			if err != nil {
				return nil, err
			}
			sampleTypeRaw = append(sampleTypeRaw, payload)
		case 2: // sample
			payload, err := b.bytesField()
			if err != nil {
				return nil, err
			}
			s, err := parseSample(payload)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
		case 4: // location
			payload, err := b.bytesField()
			if err != nil {
				return nil, err
			}
			l, err := parseLocation(payload)
			if err != nil {
				return nil, err
			}
			locs[l.id] = l
		case 5: // function
			payload, err := b.bytesField()
			if err != nil {
				return nil, err
			}
			f, err := parseFunction(payload)
			if err != nil {
				return nil, err
			}
			funcs[f.id] = f
		case 6: // string_table
			payload, err := b.bytesField()
			if err != nil {
				return nil, err
			}
			strtab = append(strtab, string(payload))
		case 9: // time_nanos
			v, err := b.uvarint()
			if err != nil {
				return nil, err
			}
			p.TimeNanos = int64(v)
		case 10: // duration_nanos
			v, err := b.uvarint()
			if err != nil {
				return nil, err
			}
			p.DurationNanos = int64(v)
		case 11: // period_type
			payload, err := b.bytesField()
			if err != nil {
				return nil, err
			}
			periodRaw = payload
		case 12: // period
			v, err := b.uvarint()
			if err != nil {
				return nil, err
			}
			p.Period = int64(v)
		default:
			if err := b.skip(wire); err != nil {
				return nil, err
			}
		}
	}

	str := func(i int64) string {
		if i <= 0 || int(i) >= len(strtab) {
			return ""
		}
		return strtab[i]
	}
	for _, raw := range sampleTypeRaw {
		vt, err := parseValueType(raw, str)
		if err != nil {
			return nil, err
		}
		sampleType = append(sampleType, vt)
	}
	p.SampleTypes = sampleType
	if periodRaw != nil {
		vt, err := parseValueType(periodRaw, str)
		if err != nil {
			return nil, err
		}
		p.PeriodType = vt
	}

	for _, rs := range samples {
		s := &Sample{Values: rs.values}
		for _, id := range rs.locIDs {
			loc, ok := locs[id]
			if !ok {
				return nil, fmt.Errorf("pprof: sample references unknown location %d", id)
			}
			for _, ln := range loc.lines {
				fn, ok := funcs[ln.funcID]
				if !ok {
					return nil, fmt.Errorf("pprof: location %d references unknown function %d", id, ln.funcID)
				}
				s.Stack = append(s.Stack, Frame{
					Func:      str(fn.name),
					File:      str(fn.file),
					Line:      ln.line,
					StartLine: fn.startLine,
				})
			}
		}
		for _, rl := range rs.labels {
			s.Labels = append(s.Labels, Label{
				Key:     str(rl.key),
				Str:     str(rl.str),
				Num:     rl.num,
				NumUnit: str(rl.numUnit),
			})
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

func parseValueType(data []byte, str func(int64) string) (ValueType, error) {
	var t, u int64
	b := &pbuf{data: data}
	for !b.done() {
		num, wire, err := b.field()
		if err != nil {
			return ValueType{}, err
		}
		switch num {
		case 1:
			v, err := b.uvarint()
			if err != nil {
				return ValueType{}, err
			}
			t = int64(v)
		case 2:
			v, err := b.uvarint()
			if err != nil {
				return ValueType{}, err
			}
			u = int64(v)
		default:
			if err := b.skip(wire); err != nil {
				return ValueType{}, err
			}
		}
	}
	return ValueType{Type: str(t), Unit: str(u)}, nil
}

func parseSample(data []byte) (pbRawSample, error) {
	var s pbRawSample
	b := &pbuf{data: data}
	for !b.done() {
		num, wire, err := b.field()
		if err != nil {
			return s, err
		}
		switch num {
		case 1: // location_id
			s.locIDs, err = repeatedUint64(b, wire, s.locIDs)
			if err != nil {
				return s, err
			}
		case 2: // value
			var vals []uint64
			vals, err = repeatedUint64(b, wire, nil)
			if err != nil {
				return s, err
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
		case 3: // label
			payload, err := b.bytesField()
			if err != nil {
				return s, err
			}
			l, err := parseLabel(payload)
			if err != nil {
				return s, err
			}
			s.labels = append(s.labels, l)
		default:
			if err := b.skip(wire); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

func parseLabel(data []byte) (pbRawLabel, error) {
	var l pbRawLabel
	b := &pbuf{data: data}
	for !b.done() {
		num, wire, err := b.field()
		if err != nil {
			return l, err
		}
		switch num {
		case 1, 2, 3, 4:
			v, err := b.uvarint()
			if err != nil {
				return l, err
			}
			switch num {
			case 1:
				l.key = int64(v)
			case 2:
				l.str = int64(v)
			case 3:
				l.num = int64(v)
			case 4:
				l.numUnit = int64(v)
			}
		default:
			if err := b.skip(wire); err != nil {
				return l, err
			}
		}
	}
	return l, nil
}

func parseLocation(data []byte) (pbRawLocation, error) {
	var l pbRawLocation
	b := &pbuf{data: data}
	for !b.done() {
		num, wire, err := b.field()
		if err != nil {
			return l, err
		}
		switch num {
		case 1: // id
			v, err := b.uvarint()
			if err != nil {
				return l, err
			}
			l.id = v
		case 4: // line
			payload, err := b.bytesField()
			if err != nil {
				return l, err
			}
			ln, err := parseLine(payload)
			if err != nil {
				return l, err
			}
			l.lines = append(l.lines, ln)
		default:
			if err := b.skip(wire); err != nil {
				return l, err
			}
		}
	}
	return l, nil
}

func parseLine(data []byte) (pbRawLine, error) {
	var l pbRawLine
	b := &pbuf{data: data}
	for !b.done() {
		num, wire, err := b.field()
		if err != nil {
			return l, err
		}
		switch num {
		case 1:
			v, err := b.uvarint()
			if err != nil {
				return l, err
			}
			l.funcID = v
		case 2:
			v, err := b.uvarint()
			if err != nil {
				return l, err
			}
			l.line = int64(v)
		default:
			if err := b.skip(wire); err != nil {
				return l, err
			}
		}
	}
	return l, nil
}

func parseFunction(data []byte) (pbRawFunction, error) {
	var f pbRawFunction
	b := &pbuf{data: data}
	for !b.done() {
		num, wire, err := b.field()
		if err != nil {
			return f, err
		}
		switch num {
		case 1, 2, 4, 5:
			v, err := b.uvarint()
			if err != nil {
				return f, err
			}
			switch num {
			case 1:
				f.id = v
			case 2:
				f.name = int64(v)
			case 4:
				f.file = int64(v)
			case 5:
				f.startLine = int64(v)
			}
		default:
			if err := b.skip(wire); err != nil {
				return f, err
			}
		}
	}
	return f, nil
}

// ---------------------------------------------------------------------------
// Encoding.

func apUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func apTag(b []byte, field, wire int) []byte {
	return apUvarint(b, uint64(field)<<3|uint64(wire))
}

// apInt appends a varint field, omitted when zero (proto3 default).
func apInt(b []byte, field int, v int64) []byte {
	if v == 0 {
		return b
	}
	b = apTag(b, field, wireVarint)
	return apUvarint(b, uint64(v))
}

func apBytes(b []byte, field int, payload []byte) []byte {
	b = apTag(b, field, wireBytes)
	b = apUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

// apPacked appends a packed repeated varint field.
func apPacked(b []byte, field int, vals []uint64) []byte {
	if len(vals) == 0 {
		return b
	}
	var payload []byte
	for _, v := range vals {
		payload = apUvarint(payload, v)
	}
	return apBytes(b, field, payload)
}

type strTable struct {
	idx  map[string]int64
	list []string
}

func newStrTable() *strTable {
	return &strTable{idx: map[string]int64{"": 0}, list: []string{""}}
}

func (t *strTable) id(s string) int64 {
	if i, ok := t.idx[s]; ok {
		return i
	}
	i := int64(len(t.list))
	t.idx[s] = i
	t.list = append(t.list, s)
	return i
}

// EncodePProf serializes the profile back to gzipped pprof protobuf. Symbol
// tables are rebuilt from the resolved frames: functions dedupe on
// (name, file, start line), locations on (function, call line). Each frame
// becomes its own single-line location — inline grouping is not reproduced,
// which pprof and the compiler's PGO pass both accept (frames are consumed
// linearly).
func (p *Profile) EncodePProf() ([]byte, error) {
	st := newStrTable()

	vtBytes := func(vt ValueType) []byte {
		var b []byte
		b = apInt(b, 1, st.id(vt.Type))
		b = apInt(b, 2, st.id(vt.Unit))
		return b
	}

	type funcKey struct {
		name, file string
		startLine  int64
	}
	type locKey struct {
		funcID uint64
		line   int64
	}
	funcIDs := map[funcKey]uint64{}
	var funcList []funcKey
	locIDs := map[locKey]uint64{}
	var locList []locKey

	var sampleBytes []byte
	for _, s := range p.Samples {
		var sb []byte
		ids := make([]uint64, 0, len(s.Stack))
		for _, fr := range s.Stack {
			fk := funcKey{name: fr.Func, file: fr.File, startLine: fr.StartLine}
			fid, ok := funcIDs[fk]
			if !ok {
				fid = uint64(len(funcList) + 1)
				funcIDs[fk] = fid
				funcList = append(funcList, fk)
			}
			lk := locKey{funcID: fid, line: fr.Line}
			lid, ok := locIDs[lk]
			if !ok {
				lid = uint64(len(locList) + 1)
				locIDs[lk] = lid
				locList = append(locList, lk)
			}
			ids = append(ids, lid)
		}
		sb = apPacked(sb, 1, ids)
		vals := make([]uint64, len(s.Values))
		for i, v := range s.Values {
			vals[i] = uint64(v)
		}
		sb = apPacked(sb, 2, vals)
		for _, l := range s.Labels {
			var lb []byte
			lb = apInt(lb, 1, st.id(l.Key))
			lb = apInt(lb, 2, st.id(l.Str))
			lb = apInt(lb, 3, l.Num)
			lb = apInt(lb, 4, st.id(l.NumUnit))
			sb = apBytes(sb, 3, lb)
		}
		sampleBytes = apBytes(sampleBytes, 2, sb)
	}

	var out []byte
	for _, vt := range p.SampleTypes {
		out = apBytes(out, 1, vtBytes(vt))
	}
	out = append(out, sampleBytes...)
	for i, lk := range locList {
		var lb []byte
		lb = apInt(lb, 1, int64(i+1))
		var line []byte
		line = apInt(line, 1, int64(lk.funcID))
		line = apInt(line, 2, lk.line)
		lb = apBytes(lb, 4, line)
		out = apBytes(out, 4, lb)
	}
	for i, fk := range funcList {
		var fb []byte
		fb = apInt(fb, 1, int64(i+1))
		fb = apInt(fb, 2, st.id(fk.name))
		fb = apInt(fb, 4, st.id(fk.file))
		fb = apInt(fb, 5, fk.startLine)
		out = apBytes(out, 5, fb)
	}
	for _, s := range st.list {
		out = apBytes(out, 6, []byte(s))
	}
	out = apInt(out, 9, p.TimeNanos)
	out = apInt(out, 10, p.DurationNanos)
	if p.PeriodType != (ValueType{}) {
		out = apBytes(out, 11, vtBytes(p.PeriodType))
	}
	out = apInt(out, 12, p.Period)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(out); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return gz.Bytes(), nil
}

// ---------------------------------------------------------------------------
// Merging.

// MergePProf combines profiles with identical sample and period types into
// one: samples with the same stack and labels sum their values, durations
// add, and the earliest start time wins. This is how rotated CPU segments
// (disjoint in time by construction) reassemble into the whole-run profile
// behind profdiff.
func MergePProf(profiles []*Profile) (*Profile, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("pprof: nothing to merge")
	}
	first := profiles[0]
	out := &Profile{
		SampleTypes: first.SampleTypes,
		PeriodType:  first.PeriodType,
		Period:      first.Period,
		TimeNanos:   first.TimeNanos,
	}
	merged := map[string]*Sample{}
	var order []string
	for _, p := range profiles {
		if err := compatible(first, p); err != nil {
			return nil, err
		}
		out.DurationNanos += p.DurationNanos
		if p.TimeNanos != 0 && (out.TimeNanos == 0 || p.TimeNanos < out.TimeNanos) {
			out.TimeNanos = p.TimeNanos
		}
		if p.Period > out.Period {
			out.Period = p.Period
		}
		for _, s := range p.Samples {
			k := sampleKey(s)
			if m, ok := merged[k]; ok {
				for i := range m.Values {
					if i < len(s.Values) {
						m.Values[i] += s.Values[i]
					}
				}
				continue
			}
			cp := &Sample{
				Stack:  append([]Frame(nil), s.Stack...),
				Values: append([]int64(nil), s.Values...),
				Labels: append([]Label(nil), s.Labels...),
			}
			merged[k] = cp
			order = append(order, k)
		}
	}
	for _, k := range order {
		out.Samples = append(out.Samples, merged[k])
	}
	return out, nil
}

func compatible(a, b *Profile) error {
	if len(a.SampleTypes) != len(b.SampleTypes) {
		return fmt.Errorf("pprof: cannot merge profiles with %d vs %d sample types",
			len(a.SampleTypes), len(b.SampleTypes))
	}
	for i := range a.SampleTypes {
		if a.SampleTypes[i] != b.SampleTypes[i] {
			return fmt.Errorf("pprof: cannot merge profiles with sample types %v vs %v",
				a.SampleTypes[i], b.SampleTypes[i])
		}
	}
	if a.PeriodType != b.PeriodType {
		return fmt.Errorf("pprof: cannot merge profiles with period types %v vs %v",
			a.PeriodType, b.PeriodType)
	}
	return nil
}

// sampleKey canonicalizes a sample's identity: the full stack plus sorted
// labels.
func sampleKey(s *Sample) string {
	var b strings.Builder
	for _, f := range s.Stack {
		b.WriteString(f.Func)
		b.WriteByte('@')
		b.WriteString(f.File)
		b.WriteByte(':')
		b.WriteString(strconv.FormatInt(f.Line, 10))
		b.WriteByte(';')
	}
	if len(s.Labels) > 0 {
		labels := append([]Label(nil), s.Labels...)
		sort.Slice(labels, func(i, j int) bool {
			if labels[i].Key != labels[j].Key {
				return labels[i].Key < labels[j].Key
			}
			return labels[i].Str < labels[j].Str
		})
		b.WriteByte('|')
		for _, l := range labels {
			b.WriteString(l.Key)
			b.WriteByte('=')
			b.WriteString(l.Str)
			b.WriteByte('#')
			b.WriteString(strconv.FormatInt(l.Num, 10))
			b.WriteByte(';')
		}
	}
	return b.String()
}
