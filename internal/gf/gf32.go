package gf

// GF(2^32) implementation. Log/antilog tables are infeasible at this
// size, so element products use carry-less shift-and-xor multiplication
// reduced by the primitive polynomial x^32 + x^22 + x^2 + x + 1.
//
// The packed-slice routines use that multiplying a 32-bit symbol by a
// constant c is GF(2)-linear: byte i of c*s is Σ_j M_ij·(byte j of s)
// for sixteen 8x8 bit matrices M_ij, all read from the images c*x^n.
// Each dispatch level (p8Kernel) has its own kernel: gf32AffineGFNI
// applies the matrices with VGF2P8AFFINEQB and gf32NibbleAVX2 as PSHUFB
// nibble tables, 128 bytes per step; the word level takes four lookups
// per symbol in 256-entry byte tables.

import (
	"encoding/binary"
	"math/bits"
)

type gf32Field struct{}

var _ Field = gf32Field{}

func newGF32() Field { return gf32Field{} }

func (gf32Field) Bits() uint    { return Bits32 }
func (gf32Field) Order() uint64 { return 1 << 32 }
func (gf32Field) Mask() uint32  { return 0xFFFFFFFF }

func (gf32Field) Add(a, b uint32) uint32 { return a ^ b }

func (gf32Field) Mul(a, b uint32) uint32 { return gf32Mul(a, b) }

func gf32Mul(a, b uint32) uint32 {
	var r uint32
	for b != 0 {
		if b&1 != 0 {
			r ^= a
		}
		b >>= 1
		carry := a & 0x80000000
		a <<= 1
		if carry != 0 {
			a ^= poly32
		}
	}
	return r
}

func (f gf32Field) Inv(a uint32) (uint32, error) {
	if a == 0 {
		return 0, ErrDivideByZero
	}
	// Extended Euclid over GF(2)[x] against the full modulus
	// x^32 + (reduced part).
	const modulus = uint64(1)<<32 | poly32
	inv, ok := polyInvMod(uint64(a), modulus)
	if !ok {
		// Unreachable for a non-zero element of a field defined by an
		// irreducible polynomial.
		return 0, ErrDivideByZero
	}
	return uint32(inv), nil
}

func (f gf32Field) Div(a, b uint32) (uint32, error) {
	bi, err := f.Inv(b)
	if err != nil {
		return 0, err
	}
	return gf32Mul(a, bi), nil
}

func (f gf32Field) Exp(a uint32, n uint64) uint32 {
	return expGeneric(f, a, n)
}

// gf32Images returns c*x^n for n = 0..31: the image of each input bit,
// from which both the byte tables and the bit matrices are read.
func gf32Images(c uint32) [32]uint32 {
	var v [32]uint32
	for n := range v {
		v[n] = c
		carry := c & 0x80000000
		c <<= 1
		if carry != 0 {
			c ^= poly32
		}
	}
	return v
}

// gf32ByteTablesInto fills t[j][b] = c*(b << 8j), so that
// c*s = t[0][s&0xFF] ^ t[1][s>>8&0xFF] ^ t[2][s>>16&0xFF] ^ t[3][s>>24].
func gf32ByteTablesInto(t *[4][256]uint32, c uint32) {
	v := gf32Images(c)
	for j := range t {
		t[j][0] = 0
		for i := 0; i < 8; i++ {
			p := 1 << i
			for b := 0; b < p; b++ {
				t[j][p+b] = t[j][b] ^ v[8*j+i]
			}
		}
	}
}

// gf32MatricesInto fills the sixteen M_ij of b -> byte i of c*(b << 8j)
// in VGF2P8AFFINEQB's layout (see affineMatrix), paired in the order
// gf32AffineGFNI reads them: [M00 M11] [M01 M10] [M02 M13] [M03 M12]
// [M20 M31] [M21 M30] [M22 M33] [M23 M32].
func gf32MatricesInto(m *[16]uint64, c uint32) {
	v := gf32Images(c)
	// cols[i][j] holds byte i of c*x^(8j+b) as its byte b: column b of
	// M_ij. Transposing it puts bit r of every column in byte r, and the
	// byte reversal moves that row to byte 7-r.
	var cols [4][4]uint64
	for j := 0; j < 4; j++ {
		for b := 0; b < 8; b++ {
			w := v[8*j+b]
			for i := 0; i < 4; i++ {
				cols[i][j] |= uint64(byte(w>>(8*i))) << (8 * b)
			}
		}
	}
	order := [16][2]int{
		{0, 0}, {1, 1}, {0, 1}, {1, 0}, {0, 2}, {1, 3}, {0, 3}, {1, 2},
		{2, 0}, {3, 1}, {2, 1}, {3, 0}, {2, 2}, {3, 3}, {2, 3}, {3, 2},
	}
	for k, ij := range order {
		m[k] = bits.ReverseBytes64(transpose8x8(cols[ij[0]][ij[1]]))
	}
}

// transpose8x8 transposes the 8x8 bit matrix whose row r is byte r:
// bit 8r+b of x becomes bit 8b+r (Hacker's Delight, transpose8).
func transpose8x8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}

// gf32NibbleTablesInto fills the PSHUFB tables of gf32NibbleAVX2: for
// output byte i and input byte j, t[2(4i+j)] maps a nibble n to byte i
// of c*(n << 8j) and t[2(4i+j)+1] to byte i of c*(n << (8j+4)), each
// repeated in both 16-byte lanes.
func gf32NibbleTablesInto(t *[32][32]byte, c uint32) {
	v := gf32Images(c)
	for j := 0; j < 4; j++ {
		for h := 0; h < 2; h++ {
			var prod [16]uint32
			for b := 0; b < 4; b++ {
				p := 1 << b
				for n := 0; n < p; n++ {
					prod[p+n] = prod[n] ^ v[8*j+4*h+b]
				}
			}
			for i := 0; i < 4; i++ {
				row := &t[2*(4*i+j)+h]
				for n, w := range prod {
					row[n] = byte(w >> (8 * i))
					row[n+16] = row[n]
				}
			}
		}
	}
}

// gf32Region computes dst = c*src (add false) or dst ^= c*src (add true)
// over whole 32-bit symbols; src may equal dst.
func gf32Region(dst, src []byte, c uint32, add bool) {
	n := len(dst) &^ 3
	switch p8Kernel {
	case kernelGFNI:
		var m [16]uint64
		gf32MatricesInto(&m, c)
		gf32Vector(&m, nil, dst[:n], src[:n], add)
	case kernelAVX2:
		var nib [32][32]byte
		gf32NibbleTablesInto(&nib, c)
		gf32Vector(nil, &nib, dst[:n], src[:n], add)
	default:
		var t [4][256]uint32
		gf32ByteTablesInto(&t, c)
		for i := 0; i < n; i += 4 {
			s := binary.LittleEndian.Uint32(src[i:])
			p := t[0][s&0xFF] ^ t[1][s>>8&0xFF] ^ t[2][s>>16&0xFF] ^ t[3][s>>24]
			if add {
				p ^= binary.LittleEndian.Uint32(dst[i:])
			}
			binary.LittleEndian.PutUint32(dst[i:], p)
		}
	}
}

// gf32Vector runs the GFNI kernel (m set) or the AVX2 kernel (nib set)
// over equal-length dst and src: whole 128-byte blocks in place, the
// last partial block through zero-padded copies.
func gf32Vector(m *[16]uint64, nib *[32][32]byte, dst, src []byte, add bool) {
	blocks := func(d, s *byte, n int) {
		if m != nil {
			gf32AffineGFNI(m, d, s, n, add)
		} else {
			gf32NibbleAVX2(nib, d, s, n, add)
		}
	}
	bulk := len(dst) &^ 127
	if bulk > 0 {
		blocks(&dst[0], &src[0], bulk)
	}
	if rest := len(dst) - bulk; rest > 0 {
		var d, s [128]byte
		copy(d[:], dst[bulk:])
		copy(s[:], src[bulk:])
		blocks(&d[0], &s[0], 128)
		copy(dst[bulk:], d[:rest])
	}
}

func (f gf32Field) AddScaledSlice(dst, src []byte, c uint32) {
	if len(dst) != len(src) {
		panic("gf: AddScaledSlice length mismatch")
	}
	switch c {
	case 0:
	case 1:
		AddSlice(dst, src)
	default:
		gf32Region(dst, src, c, true)
	}
}

func (f gf32Field) ScaleSlice(dst []byte, c uint32) {
	switch c {
	case 0:
		clear(dst)
	case 1:
	default:
		gf32Region(dst, dst, c, false)
	}
}
