// Package dna provides the base-level sequence substrate used throughout the
// miniGiraffe reproduction: 2-bit base codes, packed sequence storage,
// reverse complements, and the short-read records that the mapping pipeline
// consumes.
//
// DNA is represented over the four-letter alphabet A, C, G, T. Internally a
// base is a 2-bit code (A=0, C=1, G=2, T=3) so that complementation is
// `3-code` and packed storage fits four bases per byte.
package dna

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Base is a 2-bit DNA base code: A=0, C=1, G=2, T=3.
type Base uint8

// The four bases in code order.
const (
	A Base = 0
	C Base = 1
	G Base = 2
	T Base = 3
)

// NumBases is the alphabet size.
const NumBases = 4

var baseToChar = [NumBases]byte{'A', 'C', 'G', 'T'}

// charToBase maps an ASCII byte to its base code, or 0xFF for invalid bytes.
var charToBase [256]byte

func init() {
	for i := range charToBase {
		charToBase[i] = 0xFF
	}
	charToBase['A'], charToBase['a'] = 0, 0
	charToBase['C'], charToBase['c'] = 1, 1
	charToBase['G'], charToBase['g'] = 2, 2
	charToBase['T'], charToBase['t'] = 3, 3
}

// Char returns the upper-case ASCII letter for b.
func (b Base) Char() byte { return baseToChar[b&3] }

// Complement returns the Watson-Crick complement of b (A<->T, C<->G).
func (b Base) Complement() Base { return 3 - (b & 3) }

// String implements fmt.Stringer.
func (b Base) String() string { return string(baseToChar[b&3]) }

// BaseFromChar converts an ASCII letter to a base code. ok is false for
// non-ACGT characters (including N).
func BaseFromChar(c byte) (b Base, ok bool) {
	v := charToBase[c]
	return Base(v), v != 0xFF
}

// Sequence is an unpacked DNA sequence, one base code per byte. The unpacked
// form is what the performance-critical kernels iterate over; Packed below is
// the storage form.
type Sequence []Base

// ErrInvalidBase reports a non-ACGT character during parsing.
var ErrInvalidBase = errors.New("dna: invalid base character")

// Parse converts an ACGT string to a Sequence. It returns ErrInvalidBase
// (wrapped with position info) on any other character.
func Parse(s string) (Sequence, error) {
	seq := make(Sequence, len(s))
	for i := 0; i < len(s); i++ {
		b, ok := BaseFromChar(s[i])
		if !ok {
			return nil, fmt.Errorf("%w: %q at offset %d", ErrInvalidBase, s[i], i)
		}
		seq[i] = b
	}
	return seq, nil
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(s string) Sequence {
	seq, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return seq
}

// String renders the sequence as an ACGT string.
func (s Sequence) String() string {
	var sb strings.Builder
	sb.Grow(len(s))
	for _, b := range s {
		sb.WriteByte(b.Char())
	}
	return sb.String()
}

// Clone returns an independent copy of s.
func (s Sequence) Clone() Sequence {
	out := make(Sequence, len(s))
	copy(out, s)
	return out
}

// RevComp returns the reverse complement of s as a new sequence.
func (s Sequence) RevComp() Sequence {
	return s.AppendRevComp(make(Sequence, 0, len(s)))
}

// AppendRevComp appends the reverse complement of s to dst and returns the
// extended slice; RevComp without the allocation when dst has room.
func (s Sequence) AppendRevComp(dst Sequence) Sequence {
	n := len(dst)
	dst = slices.Grow(dst, len(s))[:n+len(s)]
	for i, b := range s {
		dst[n+len(s)-1-i] = b.Complement()
	}
	return dst
}

// Equal reports whether s and t hold the same bases.
func (s Sequence) Equal(t Sequence) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Packed is a 2-bit-per-base packed DNA sequence, four bases per byte,
// little-endian within the byte (base i occupies bits 2*(i%4)..2*(i%4)+1 of
// byte i/4). This is the on-disk and in-graph storage format.
type Packed struct {
	data []byte
	n    int
}

// Pack converts an unpacked sequence to packed storage.
func Pack(s Sequence) Packed {
	data := make([]byte, (len(s)+3)/4)
	for i, b := range s {
		data[i/4] |= byte(b&3) << uint(2*(i%4))
	}
	return Packed{data: data, n: len(s)}
}

// PackedFromRaw reconstructs a Packed from its serialized parts. It is the
// inverse of (Packed).Raw and validates that data is large enough for n.
func PackedFromRaw(data []byte, n int) (Packed, error) {
	if need := (n + 3) / 4; len(data) < need || n < 0 {
		return Packed{}, fmt.Errorf("dna: packed data too short: have %d bytes, need %d for %d bases", len(data), (n+3)/4, n)
	}
	return Packed{data: data, n: n}, nil
}

// Raw returns the underlying packed bytes and the base count, for
// serialization. The returned slice aliases the Packed's storage.
func (p Packed) Raw() (data []byte, n int) { return p.data, p.n }

// Len returns the number of bases.
func (p Packed) Len() int { return p.n }

// At returns base i. It panics if i is out of range, mirroring slice indexing.
func (p Packed) At(i int) Base {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("dna: Packed index %d out of range [0,%d)", i, p.n))
	}
	return Base(p.data[i/4]>>uint(2*(i%4))) & 3
}

// Unpack expands the packed sequence to one base per byte.
func (p Packed) Unpack() Sequence {
	out := make(Sequence, p.n)
	for i := 0; i < p.n; i++ {
		out[i] = Base(p.data[i/4]>>uint(2*(i%4))) & 3
	}
	return out
}

// Read is one short read to be mapped: a name, the sequence, and for
// paired-end workflows the fragment identity and end index.
type Read struct {
	// Name identifies the read (e.g. "SRR4074257.17").
	Name string
	// Seq is the read's bases in sequencing order.
	Seq Sequence
	// Fragment groups the two ends of a paired-end fragment; -1 when
	// single-end.
	Fragment int
	// End is 0 for single-end or first-of-pair, 1 for second-of-pair.
	End int
}

// Paired reports whether the read belongs to a paired-end fragment.
func (r *Read) Paired() bool { return r.Fragment >= 0 }

// Len returns the read length in bases.
func (r *Read) Len() int { return len(r.Seq) }
