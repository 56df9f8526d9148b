package gf

// Region kernels: bulk multiply-accumulate over packed symbol vectors.
//
// Everything funnels into one operation, accum:
//
//	dst = scale * (dst ^ Σ_j c_j*srcs[j])
//
// with one MulTable per constant. MulAddSlice, MulSlice, MulTable.MulAdd,
// MulTable.Mul and AccumSlices are its one-source, no-source and
// many-source cases, and Field.AddScaledSlice/ScaleSlice route to it for
// p=4 and p=8.
//
// For p=4 and p=8 the kernel is chosen once per process from the CPU
// (kernel_amd64.go), fastest first:
//
//   - kernelGFNI: multiplying a byte by a constant is GF(2)-linear, so
//     c*b is one 8x8 bit-matrix product, which VGF2P8AFFINEQB applies to
//     64 bytes at once. The accumulator stays in ZMM registers across
//     every source, so dst is loaded and stored once per 64 bytes however
//     many sources are folded in; a byte mask finishes the tail.
//   - kernelAVX2: the split-table construction. c*b = lo[b&0xF] ^
//     hi[b>>4], and each 16-entry table is a PSHUFB mask, so one shuffle
//     per nibble half multiplies 32 bytes; sources are folded one at a
//     time.
//   - kernelWord: a 256-entry product row per constant, 8 bytes per
//     64-bit word, all sources fused per word.
//
// p=16 always runs a low/high byte split (c*s = lo[s&0xFF] ^ hi[s>>8])
// word kernel, one source at a time. GF(2^32) tables defer to the
// field's own slice routines, which run a kernel of their own (gf32.go):
// sixteen byte-to-byte bit matrices under GFNI, byte tables elsewhere.
//
// Every kernel is exact: it produces bit-identical results to the
// per-symbol GetSym/SetSym reference path.

import (
	"encoding/binary"
	"unsafe"
)

// kernelKind names a region kernel, and so which fields of a MulTable
// Init filled.
type kernelKind uint8

const (
	kernelField     kernelKind = iota // no tables (GF(2^32)): the field's slice routines
	kernelByteSplit                   // p=16: low/high byte split tables
	kernelWord                        // p=4/p=8: 256-entry product row
	kernelAVX2                        // p=4/p=8: PSHUFB nibble split tables
	kernelGFNI                        // p=4/p=8: VGF2P8AFFINEQB bit matrix
)

// p8Kernel is the p=4/p=8 kernel this CPU runs, picked once at start-up;
// GF(2^32) slices run their GFNI kernel when it is kernelGFNI, the same
// CPU features. Only tests reassign it; tables record the kernel they
// were built for, so a table stays valid across a reassignment.
var p8Kernel = detectKernel()

// identityMatrix is the GFNI matrix of b -> b, i.e. c = 1.
const identityMatrix = 0x0102040810204080

// MulAddSlice computes dst[i] ^= c*src[i] over packed symbol vectors,
// like Field.AddScaledSlice. dst and src must have equal length and
// must not overlap.
func MulAddSlice(f Field, dst, src []byte, c uint32) {
	var t MulTable
	t.Init(f, c)
	t.MulAdd(dst, src)
}

// MulSlice computes dst[i] = c*dst[i] in place, like Field.ScaleSlice.
func MulSlice(f Field, dst []byte, c uint32) {
	var t MulTable
	t.Init(f, c)
	t.Mul(dst)
}

// MulAddWords computes dst[i] ^= c*src[i] over unpacked coefficient
// rows (one symbol per uint32), replacing per-element Mul loops in the
// matrix code. Values must already be reduced to the field mask.
func MulAddWords(f Field, dst, src []uint32, c uint32) {
	c &= f.Mask()
	if len(dst) != len(src) {
		panic("gf: MulAddWords length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	tf, ok := f.(*tableField)
	if !ok {
		for i, s := range src {
			if s != 0 {
				dst[i] ^= f.Mul(s, c)
			}
		}
		return
	}
	switch tf.bits {
	case Bits4:
		var nib [16]uint32
		tf.nibbleRowInto(&nib, c)
		for i, s := range src {
			dst[i] ^= nib[s&0xF]
		}
	case Bits8:
		var lo, hi [16]byte
		tf.splitTablesInto(&lo, &hi, c)
		for i, s := range src {
			dst[i] ^= uint32(lo[s&0xF] ^ hi[(s>>4)&0xF])
		}
	default: // Bits16
		var lo, hi [256]uint16
		tf.byteTablesInto(&lo, &hi, c)
		for i, s := range src {
			dst[i] ^= uint32(lo[s&0xFF] ^ hi[(s>>8)&0xFF])
		}
	}
}

// MulWords computes dst[i] = c*dst[i] over unpacked coefficient rows.
func MulWords(f Field, dst []uint32, c uint32) {
	c &= f.Mask()
	if c == 1 {
		return
	}
	if c == 0 {
		clear(dst)
		return
	}
	tf, ok := f.(*tableField)
	if !ok {
		for i, s := range dst {
			if s != 0 {
				dst[i] = f.Mul(s, c)
			}
		}
		return
	}
	switch tf.bits {
	case Bits4:
		var nib [16]uint32
		tf.nibbleRowInto(&nib, c)
		for i, s := range dst {
			dst[i] = nib[s&0xF]
		}
	case Bits8:
		var lo, hi [16]byte
		tf.splitTablesInto(&lo, &hi, c)
		for i, s := range dst {
			dst[i] = uint32(lo[s&0xF] ^ hi[(s>>4)&0xF])
		}
	default: // Bits16
		var lo, hi [256]uint16
		tf.byteTablesInto(&lo, &hi, c)
		for i, s := range dst {
			dst[i] = uint32(lo[s&0xFF] ^ hi[(s>>8)&0xFF])
		}
	}
}

// --- table builders (on tableField so they can reach exp/log) ---

// splitTablesInto fills the low/high nibble split tables of a packed
// byte (one p=8 symbol, or a pair of p=4 symbols):
// c*b == lo[b&0xF] ^ hi[b>>4] for every byte b. For p=4, lo maps the
// low symbol to its product and hi maps the high symbol to its product
// shifted back into the high nibble.
func (f *tableField) splitTablesInto(lo, hi *[16]byte, c uint32) {
	if c == 0 {
		*lo, *hi = [16]byte{}, [16]byte{}
		return
	}
	lc := f.log[c]
	if f.bits == Bits4 {
		for s := uint32(1); s < 16; s++ {
			p := byte(f.exp[lc+f.log[s]])
			lo[s], hi[s] = p, p<<4
		}
		return
	}
	for s := uint32(1); s < 16; s++ {
		lo[s] = byte(f.exp[lc+f.log[s]])
		hi[s] = byte(f.exp[lc+f.log[s<<4]])
	}
}

// byteTablesInto fills the low/high byte split tables for p=16:
// c*s == lo[s&0xFF] ^ hi[s>>8] for every 16-bit symbol s.
func (f *tableField) byteTablesInto(lo, hi *[256]uint16, c uint32) {
	if c == 0 {
		*lo, *hi = [256]uint16{}, [256]uint16{}
		return
	}
	lc := f.log[c]
	for s := uint32(1); s < 256; s++ {
		lo[s] = uint16(f.exp[lc+f.log[s]])
		hi[s] = uint16(f.exp[lc+f.log[s<<8]])
	}
}

// nibbleRowInto fills the 16-entry product row for p=4 symbols.
func (f *tableField) nibbleRowInto(nib *[16]uint32, c uint32) {
	lc := f.log[c]
	for s := uint32(1); s < 16; s++ {
		nib[s] = f.exp[lc+f.log[s]]
	}
}

// affineMatrix returns the 8x8 GF(2) matrix of the packed-byte map
// b -> c*b in VGF2P8AFFINEQB's layout: byte 7-i of the result is row i,
// whose bit j is bit i of c*(1<<j). For p=4 the matrix is
// block-diagonal, one 4x4 block per nibble.
func (f *tableField) affineMatrix(c uint32) uint64 {
	var lo, hi [16]byte
	f.splitTablesInto(&lo, &hi, c)
	var m uint64
	for j := 0; j < 8; j++ {
		b := byte(1) << j
		col := lo[b&0xF] ^ hi[b>>4]
		for i := 0; i < 8; i++ {
			m |= uint64(col>>i&1) << (8*(7-i) + j)
		}
	}
	return m
}

// MulTable is a reusable per-constant product table. Init builds what
// this CPU's kernel reads once; MulAdd/Mul and AccumSlices then run
// with zero per-call setup. The zero value is a table for c=0 (MulAdd
// is a no-op). A MulTable is plain data: value assignment copies it,
// and it is safe for concurrent *readers* after Init returns.
type MulTable struct {
	f    Field
	c    uint32
	kind kernelKind

	mat  uint64      // kernelGFNI: affine matrix of b -> c*b
	lo8  [16]byte    // kernelAVX2: low-nibble split (PSHUFB mask)
	hi8  [16]byte    // kernelAVX2: high-nibble split
	row8 [256]byte   // kernelWord: c*b for every byte b
	lo16 [256]uint16 // kernelByteSplit: low-byte split
	hi16 [256]uint16 // kernelByteSplit: high-byte split
}

// Init (re)builds the table for constant c over f.
func (t *MulTable) Init(f Field, c uint32) {
	t.f = f
	tf, ok := f.(*tableField)
	if !ok {
		t.c, t.kind = c&f.Mask(), kernelField
		return
	}
	c &= tf.mask
	t.c = c
	switch {
	case tf.bits == Bits16:
		t.kind = kernelByteSplit
		tf.byteTablesInto(&t.lo16, &t.hi16, c)
	default:
		t.kind = p8Kernel
		switch t.kind {
		case kernelGFNI:
			t.mat = tf.mats[c]
		case kernelAVX2:
			tf.splitTablesInto(&t.lo8, &t.hi8, c)
		default:
			var lo, hi [16]byte
			tf.splitTablesInto(&lo, &hi, c)
			for b := range t.row8 {
				t.row8[b] = lo[b&0xF] ^ hi[b>>4]
			}
		}
	}
}

// C returns the constant the table was built for.
func (t *MulTable) C() uint32 { return t.c }

// MulAdd computes dst[i] ^= c*src[i] using the prebuilt table.
func (t *MulTable) MulAdd(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: MulAdd length mismatch")
	}
	if t.c == 0 {
		return
	}
	srcs := [1][]byte{src}
	accum(dst, srcs[:], unsafe.Slice(t, 1), nil)
}

// Mul scales dst in place by the table's constant.
func (t *MulTable) Mul(dst []byte) {
	if t.c != 1 {
		accum(dst, nil, nil, t)
	}
}

// AccumSlices is the fused multi-source kernel behind the encoder and
// the decode pipeline: dst[i] = scale * (dst[i] ^ Σ_j c_j*srcs[j][i]),
// with one prebuilt table per source. On the GFNI kernel dst is loaded
// and stored once per 64 bytes however many sources are folded in.
// scale may be nil (no normalization). All tables must be built over
// the same field by the same kernel; every src must be at least as long
// as dst and must not overlap it.
func AccumSlices(dst []byte, srcs [][]byte, tabs []MulTable, scale *MulTable) {
	if len(srcs) != len(tabs) {
		panic("gf: AccumSlices srcs/tabs length mismatch")
	}
	for i := range srcs {
		if len(srcs[i]) < len(dst) {
			panic("gf: AccumSlices short source")
		}
	}
	for i := range tabs {
		if tabs[i].f != tabs[0].f || tabs[i].kind != tabs[0].kind {
			panic("gf: AccumSlices tables of mixed fields or kernels")
		}
	}
	if scale != nil && len(tabs) > 0 && (scale.f != tabs[0].f || scale.kind != tabs[0].kind) {
		panic("gf: AccumSlices scale table of another field or kernel")
	}
	accum(dst, srcs, tabs, scale)
}

// accum is the one multiply-accumulate every entry point runs:
// dst = scale * (dst ^ Σ_j c_j*srcs[j][:len(dst)]), scale nil meaning 1.
// The tables share one kind (callers check); with no sources the scale
// table picks the kernel.
func accum(dst []byte, srcs [][]byte, tabs []MulTable, scale *MulTable) {
	if scale != nil && scale.c == 0 {
		clear(dst)
		return
	}
	kind := kernelField
	switch {
	case len(tabs) > 0:
		kind = tabs[0].kind
	case scale != nil:
		kind = scale.kind
	default:
		return
	}
	switch kind {
	case kernelGFNI:
		if len(dst) == 0 {
			return
		}
		sm := uint64(identityMatrix)
		if scale != nil {
			sm = scale.mat
		}
		var srcp *[]byte
		var matp *uint64
		if len(tabs) > 0 {
			srcp, matp = &srcs[0], &tabs[0].mat
		}
		accumGFNI(&dst[0], len(dst), srcp, len(tabs), matp, unsafe.Sizeof(MulTable{}), sm)
	case kernelAVX2:
		for j := range tabs {
			t := &tabs[j]
			src := srcs[j][:len(dst)]
			switch t.c {
			case 0:
			case 1:
				AddSlice(dst, src)
			default:
				n := mulAddVecP8(&t.lo8, &t.hi8, dst, src)
				for i := n; i < len(dst); i++ {
					b := src[i]
					dst[i] ^= t.lo8[b&0xF] ^ t.hi8[b>>4]
				}
			}
		}
		if scale != nil && scale.c != 1 {
			n := mulVecP8(&scale.lo8, &scale.hi8, dst)
			for i := n; i < len(dst); i++ {
				b := dst[i]
				dst[i] = scale.lo8[b&0xF] ^ scale.hi8[b>>4]
			}
		}
	case kernelWord:
		accumBytes(dst, srcs, tabs, scale)
	case kernelByteSplit:
		// One source at a time: two 512-byte tables per source stay in
		// L1, where fusing k sources would cycle through k of them per
		// word.
		for j := range tabs {
			t := &tabs[j]
			switch t.c {
			case 0:
			case 1:
				AddSlice(dst, srcs[j][:len(dst)])
			default:
				mulAddByteSplit(&t.lo16, &t.hi16, dst, srcs[j][:len(dst)])
			}
		}
		if scale != nil && scale.c != 1 {
			mulByteSplit(&scale.lo16, &scale.hi16, dst)
		}
	default:
		for j := range tabs {
			if tabs[j].c != 0 {
				tabs[j].f.AddScaledSlice(dst, srcs[j][:len(dst)], tabs[j].c)
			}
		}
		if scale != nil {
			scale.f.ScaleSlice(dst, scale.c)
		}
	}
}

// accumBytes fuses 256-entry byte rows (p=4 packed pairs, p=8).
func accumBytes(dst []byte, srcs [][]byte, tabs []MulTable, scale *MulTable) {
	n := len(dst) &^ 7
	for w := 0; w < n; w += 8 {
		acc := binary.LittleEndian.Uint64(dst[w:])
		for j := range tabs {
			s := binary.LittleEndian.Uint64(srcs[j][w:])
			if s == 0 || tabs[j].c == 0 {
				continue
			}
			if tabs[j].c == 1 {
				acc ^= s
				continue
			}
			row := &tabs[j].row8
			acc ^= uint64(row[s&0xFF]) |
				uint64(row[s>>8&0xFF])<<8 |
				uint64(row[s>>16&0xFF])<<16 |
				uint64(row[s>>24&0xFF])<<24 |
				uint64(row[s>>32&0xFF])<<32 |
				uint64(row[s>>40&0xFF])<<40 |
				uint64(row[s>>48&0xFF])<<48 |
				uint64(row[s>>56])<<56
		}
		if scale != nil && scale.c != 1 {
			row := &scale.row8
			acc = uint64(row[acc&0xFF]) |
				uint64(row[acc>>8&0xFF])<<8 |
				uint64(row[acc>>16&0xFF])<<16 |
				uint64(row[acc>>24&0xFF])<<24 |
				uint64(row[acc>>32&0xFF])<<32 |
				uint64(row[acc>>40&0xFF])<<40 |
				uint64(row[acc>>48&0xFF])<<48 |
				uint64(row[acc>>56])<<56
		}
		binary.LittleEndian.PutUint64(dst[w:], acc)
	}
	for i := n; i < len(dst); i++ {
		b := dst[i]
		for j := range tabs {
			switch tabs[j].c {
			case 0:
			case 1:
				b ^= srcs[j][i]
			default:
				b ^= tabs[j].row8[srcs[j][i]]
			}
		}
		if scale != nil && scale.c != 1 {
			b = scale.row8[b]
		}
		dst[i] = b
	}
}

// mulAddByteSplit computes dst ^= c*src for p=16 through the low/high
// byte split tables of c, four symbols per 64-bit word.
func mulAddByteSplit(lo, hi *[256]uint16, dst, src []byte) {
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		if s == 0 {
			continue
		}
		p := uint64(lo[s&0xFF]^hi[s>>8&0xFF]) |
			uint64(lo[s>>16&0xFF]^hi[s>>24&0xFF])<<16 |
			uint64(lo[s>>32&0xFF]^hi[s>>40&0xFF])<<32 |
			uint64(lo[s>>48&0xFF]^hi[s>>56])<<48
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^p)
	}
	for i := n; i+1 < len(dst); i += 2 {
		s := uint32(src[i]) | uint32(src[i+1])<<8
		if s == 0 {
			continue
		}
		p := lo[s&0xFF] ^ hi[s>>8]
		dst[i] ^= byte(p)
		dst[i+1] ^= byte(p >> 8)
	}
}

// mulByteSplit scales a p=16 vector in place.
func mulByteSplit(lo, hi *[256]uint16, dst []byte) {
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		s := binary.LittleEndian.Uint64(dst[i:])
		p := uint64(lo[s&0xFF]^hi[s>>8&0xFF]) |
			uint64(lo[s>>16&0xFF]^hi[s>>24&0xFF])<<16 |
			uint64(lo[s>>32&0xFF]^hi[s>>40&0xFF])<<32 |
			uint64(lo[s>>48&0xFF]^hi[s>>56])<<48
		binary.LittleEndian.PutUint64(dst[i:], p)
	}
	for i := n; i+1 < len(dst); i += 2 {
		s := uint32(dst[i]) | uint32(dst[i+1])<<8
		p := lo[s&0xFF] ^ hi[s>>8]
		dst[i] = byte(p)
		dst[i+1] = byte(p >> 8)
	}
}
