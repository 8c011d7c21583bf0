package dna

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBaseChar(t *testing.T) {
	cases := []struct {
		b Base
		c byte
	}{{A, 'A'}, {C, 'C'}, {G, 'G'}, {T, 'T'}}
	for _, tc := range cases {
		if got := tc.b.Char(); got != tc.c {
			t.Errorf("Base(%d).Char() = %q, want %q", tc.b, got, tc.c)
		}
		if got, ok := BaseFromChar(tc.c); !ok || got != tc.b {
			t.Errorf("BaseFromChar(%q) = %v,%v, want %v,true", tc.c, got, ok, tc.b)
		}
	}
}

func TestBaseFromCharLowercase(t *testing.T) {
	for i, c := range []byte("acgt") {
		b, ok := BaseFromChar(c)
		if !ok || b != Base(i) {
			t.Errorf("BaseFromChar(%q) = %v,%v, want %v,true", c, b, ok, Base(i))
		}
	}
}

func TestBaseFromCharInvalid(t *testing.T) {
	for _, c := range []byte("NnXZ -0.") {
		if _, ok := BaseFromChar(c); ok {
			t.Errorf("BaseFromChar(%q) unexpectedly ok", c)
		}
	}
}

func TestComplement(t *testing.T) {
	pairs := map[Base]Base{A: T, C: G, G: C, T: A}
	for b, want := range pairs {
		if got := b.Complement(); got != want {
			t.Errorf("%v.Complement() = %v, want %v", b, got, want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	const s = "ACGTACGTTTGGCCAA"
	seq, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	if got := seq.String(); got != s {
		t.Errorf("round trip = %q, want %q", got, s)
	}
}

func TestParseInvalid(t *testing.T) {
	if _, err := Parse("ACGTN"); err == nil {
		t.Error("Parse with N: want error, got nil")
	}
	if _, err := Parse("ACG T"); err == nil {
		t.Error("Parse with space: want error, got nil")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse(invalid) did not panic")
		}
	}()
	MustParse("XYZ")
}

func TestRevComp(t *testing.T) {
	seq := MustParse("AACGT")
	want := "ACGTT"
	if got := seq.RevComp().String(); got != want {
		t.Errorf("RevComp(AACGT) = %q, want %q", got, want)
	}
}

func TestAppendRevComp(t *testing.T) {
	seq := MustParse("AACGT")
	prefix := MustParse("GG")
	if got := seq.AppendRevComp(prefix.Clone()).String(); got != "GGACGTT" {
		t.Errorf("AppendRevComp onto GG = %q, want GGACGTT", got)
	}
	buf := make(Sequence, 0, 8)
	got := seq.AppendRevComp(buf)
	if got.String() != "ACGTT" || &got[0] != &buf[:1][0] {
		t.Errorf("AppendRevComp into a roomy buffer = %q, reallocated %v", got, &got[0] != &buf[:1][0])
	}
}

func TestRevCompInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		seq := make(Sequence, len(raw))
		for i, b := range raw {
			seq[i] = Base(b & 3)
		}
		return seq.RevComp().RevComp().Equal(seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		seq := make(Sequence, len(raw))
		for i, b := range raw {
			seq[i] = Base(b & 3)
		}
		return Pack(seq).Unpack().Equal(seq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackedAt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seq := make(Sequence, 133)
	for i := range seq {
		seq[i] = Base(rng.Intn(4))
	}
	p := Pack(seq)
	if p.Len() != len(seq) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(seq))
	}
	for i := range seq {
		if p.At(i) != seq[i] {
			t.Fatalf("At(%d) = %v, want %v", i, p.At(i), seq[i])
		}
	}
}

func TestPackedAtPanics(t *testing.T) {
	p := Pack(MustParse("ACGT"))
	defer func() {
		if recover() == nil {
			t.Error("At(4) did not panic")
		}
	}()
	p.At(4)
}

func TestPackedFromRaw(t *testing.T) {
	seq := MustParse("ACGTACG")
	p := Pack(seq)
	data, n := p.Raw()
	q, err := PackedFromRaw(data, n)
	if err != nil {
		t.Fatalf("PackedFromRaw: %v", err)
	}
	if !q.Unpack().Equal(seq) {
		t.Error("PackedFromRaw round trip mismatch")
	}
	if _, err := PackedFromRaw(data[:1], n); err == nil {
		t.Error("PackedFromRaw with short data: want error")
	}
	if _, err := PackedFromRaw(data, -1); err == nil {
		t.Error("PackedFromRaw with negative n: want error")
	}
}

func TestSequenceClone(t *testing.T) {
	s := MustParse("ACGT")
	c := s.Clone()
	c[0] = T
	if s[0] != A {
		t.Error("Clone shares storage with original")
	}
}

func TestSequenceEqual(t *testing.T) {
	a := MustParse("ACGT")
	if !a.Equal(MustParse("ACGT")) {
		t.Error("equal sequences reported unequal")
	}
	if a.Equal(MustParse("ACGA")) {
		t.Error("unequal sequences reported equal")
	}
	if a.Equal(MustParse("ACG")) {
		t.Error("different-length sequences reported equal")
	}
}

func TestReadPaired(t *testing.T) {
	single := Read{Name: "r1", Seq: MustParse("ACGT"), Fragment: -1}
	if single.Paired() {
		t.Error("single-end read reported paired")
	}
	if single.Len() != 4 {
		t.Errorf("Len = %d, want 4", single.Len())
	}
	paired := Read{Name: "r2", Seq: MustParse("ACGT"), Fragment: 3, End: 1}
	if !paired.Paired() {
		t.Error("paired-end read reported single")
	}
}

func TestLongPackedBoundary(t *testing.T) {
	// Exercise all byte-boundary lengths around multiples of 4.
	for n := 0; n <= 17; n++ {
		seq := make(Sequence, n)
		for i := range seq {
			seq[i] = Base((i * 7) % 4)
		}
		if got := Pack(seq).Unpack(); !got.Equal(seq) {
			t.Errorf("n=%d: pack/unpack mismatch", n)
		}
	}
}

func TestStringBuilderParity(t *testing.T) {
	// Sequence.String must agree with a simple per-base construction.
	seq := MustParse("GGCCTTAA")
	var sb strings.Builder
	for _, b := range seq {
		sb.WriteByte(b.Char())
	}
	if seq.String() != sb.String() {
		t.Errorf("String() = %q, want %q", seq.String(), sb.String())
	}
}
