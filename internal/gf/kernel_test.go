package gf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// mulAddSliceRef is the per-symbol reference the word kernels must
// match bit-for-bit: dst[i] ^= c*src[i] via GetSym/SetSym.
func mulAddSliceRef(f Field, dst, src []byte, c uint32) {
	bits := f.Bits()
	for i := 0; i < VecSymbols(bits, len(src)); i++ {
		s := GetSym(bits, src, i)
		d := GetSym(bits, dst, i)
		SetSym(bits, dst, i, d^f.Mul(s, c))
	}
}

func mulSliceRef(f Field, dst []byte, c uint32) {
	bits := f.Bits()
	for i := 0; i < VecSymbols(bits, len(dst)); i++ {
		SetSym(bits, dst, i, f.Mul(GetSym(bits, dst, i), c))
	}
}

func randVec(rng *rand.Rand, n int) []byte {
	v := make([]byte, n)
	rng.Read(v)
	return v
}

// randSub returns a random n-byte sub-slice starting at an odd offset
// of a larger buffer, so no kernel can rely on aligned inputs.
func randSub(rng *rand.Rand, n int) []byte {
	off := 2*rng.Intn(8) + 1
	return randVec(rng, n+off+5)[off : off+n]
}

// testConsts is every constant of GF(2^4) and GF(2^8), or 0, 1 and 14
// random constants of the wider fields.
func testConsts(rng *rand.Rand, f Field) []uint32 {
	var cs []uint32
	if f.Bits() <= Bits8 {
		for c := uint32(0); c <= f.Mask(); c++ {
			cs = append(cs, c)
		}
		return cs
	}
	cs = append(cs, 0, 1)
	for i := 0; i < 14; i++ {
		cs = append(cs, uint32(rng.Int63())&f.Mask())
	}
	return cs
}

// String names a kernel in subtest and sub-benchmark names.
func (k kernelKind) String() string {
	switch k {
	case kernelByteSplit:
		return "bytesplit"
	case kernelWord:
		return "word"
	case kernelAVX2:
		return "avx2"
	case kernelGFNI:
		return "gfni"
	default:
		return "field"
	}
}

// kernelsUnderTest lists every p=4/p=8 kernel this CPU can run, from
// the portable word kernel up to the one detection picked.
func kernelsUnderTest() []kernelKind {
	var ks []kernelKind
	for k := kernelWord; k <= detectKernel(); k++ {
		ks = append(ks, k)
	}
	return ks
}

// forEachKernel runs fn once per kernel under test with p8Kernel set to
// it, restoring the detected kernel afterwards. Tables must be built
// inside fn to pick up the kernel.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	saved := p8Kernel
	defer func() { p8Kernel = saved }()
	for _, k := range kernelsUnderTest() {
		p8Kernel = k
		t.Run(k.String(), fn)
	}
}

// TestMulAddSliceMatchesReference checks every kernel against the
// per-symbol reference: for p=4 and p=8 every constant and every length
// 0..300 (all tail shapes of the 8-, 32-, 64- and 256-byte blocks), for
// p=16 and p=32 random constants.
func TestMulAddSliceMatchesReference(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, bits := range []uint{Bits4, Bits8, Bits16, Bits32} {
			f := MustNew(bits)
			consts := testConsts(rng, f)
			for n := 0; n <= 300; n += max(int(bits/8), 1) {
				src := randSub(rng, n)
				dst0 := randSub(rng, n)
				for _, c := range consts {
					want := bytes.Clone(dst0)
					mulAddSliceRef(f, want, src, c)
					dst := randSub(rng, n)
					copy(dst, dst0)
					MulAddSlice(f, dst, src, c)
					if !bytes.Equal(dst, want) {
						t.Fatalf("GF(2^%d) n=%d c=%#x: MulAddSlice diverges from reference", bits, n, c)
					}
					copy(dst, dst0)
					f.AddScaledSlice(dst, src, c)
					if !bytes.Equal(dst, want) {
						t.Fatalf("GF(2^%d) n=%d c=%#x: AddScaledSlice diverges from reference", bits, n, c)
					}
				}
			}
		}
	})
}

// TestMulSliceMatchesReference is the in-place scaling counterpart:
// every constant for p=4/p=8, lengths 0..300, every kernel.
func TestMulSliceMatchesReference(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		for _, bits := range []uint{Bits4, Bits8, Bits16, Bits32} {
			f := MustNew(bits)
			consts := testConsts(rng, f)
			for n := 0; n <= 300; n += max(int(bits/8), 1) {
				dst0 := randSub(rng, n)
				for _, cc := range consts {
					want := bytes.Clone(dst0)
					mulSliceRef(f, want, cc)
					dst := randSub(rng, n)
					copy(dst, dst0)
					MulSlice(f, dst, cc)
					if !bytes.Equal(dst, want) {
						t.Fatalf("GF(2^%d) n=%d c=%#x: MulSlice diverges from reference", bits, n, cc)
					}
					copy(dst, dst0)
					f.ScaleSlice(dst, cc)
					if !bytes.Equal(dst, want) {
						t.Fatalf("GF(2^%d) n=%d c=%#x: ScaleSlice diverges from reference", bits, n, cc)
					}
				}
			}
		}
	})
}

func TestMulTableMatchesOneShotKernels(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, bits := range []uint{Bits4, Bits8, Bits16, Bits32} {
			f := MustNew(bits)
			var tab MulTable
			// Re-Init one table across constants, 0 and 1 included, so
			// nothing from a previous constant survives.
			for trial := 0; trial < 16; trial++ {
				c := uint32(rng.Int63()) & f.Mask()
				if trial < 2 {
					c = uint32(trial)
				}
				tab.Init(f, c)
				if tab.C() != c {
					t.Fatalf("GF(2^%d): C()=%#x want %#x", bits, tab.C(), c)
				}
				n := 128 + 4*trial
				src := randSub(rng, n)
				dst := randSub(rng, n)
				want := bytes.Clone(dst)
				mulAddSliceRef(f, want, src, c)
				tab.MulAdd(dst, src)
				if !bytes.Equal(dst, want) {
					t.Fatalf("GF(2^%d) c=%#x: MulTable.MulAdd diverges", bits, c)
				}
				want = bytes.Clone(dst)
				mulSliceRef(f, want, c)
				tab.Mul(dst)
				if !bytes.Equal(dst, want) {
					t.Fatalf("GF(2^%d) c=%#x: MulTable.Mul diverges", bits, c)
				}
			}
		}
	})
}

// accumRef is the sequential per-symbol fold AccumSlices must match:
// dst = scale*(dst ^ Σ c_j*srcs[j]), scale 1 when nil.
func accumRef(f Field, dst []byte, srcs [][]byte, consts []uint32, scale *uint32) {
	for j := range srcs {
		mulAddSliceRef(f, dst, srcs[j][:len(dst)], consts[j])
	}
	if scale != nil {
		mulSliceRef(f, dst, *scale)
	}
}

// checkAccum builds tables for consts under the current kernel, runs
// AccumSlices and compares it with the reference fold.
func checkAccum(t *testing.T, f Field, dst []byte, srcs [][]byte, consts []uint32, scale *uint32) {
	t.Helper()
	want := bytes.Clone(dst)
	accumRef(f, want, srcs, consts, scale)
	tabs := make([]MulTable, len(consts))
	for j, c := range consts {
		tabs[j].Init(f, c)
	}
	var st *MulTable
	if scale != nil {
		st = new(MulTable)
		st.Init(f, *scale)
	}
	AccumSlices(dst, srcs, tabs, st)
	if !bytes.Equal(dst, want) {
		t.Fatalf("GF(2^%d) nsrc=%d n=%d consts=%x scale=%v: AccumSlices diverges from sequential fold",
			f.Bits(), len(srcs), len(dst), consts, scale)
	}
}

// TestAccumSlicesMatchesSequentialFold runs every kernel over source
// counts 0..K+1 (K=9), lengths around every block boundary, sources
// longer than dst at odd offsets, and scale nil, 1 and random.
func TestAccumSlicesMatchesSequentialFold(t *testing.T) {
	const k = 9
	lens := []int{0, 1, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300, 1024, 1031}
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for _, bits := range []uint{Bits4, Bits8, Bits16, Bits32} {
			f := MustNew(bits)
			for nsrc := 0; nsrc <= k+1; nsrc++ {
				for _, n := range lens {
					n -= n % max(int(bits/8), 1)
					srcs := make([][]byte, nsrc)
					consts := make([]uint32, nsrc)
					for j := range srcs {
						srcs[j] = randSub(rng, n+rng.Intn(3)*int(bits/4))
						consts[j] = uint32(rng.Int63()) & f.Mask()
						if j%5 == 3 {
							consts[j] = uint32(j % 2) // 0 and 1 in the mix
						}
					}
					one := uint32(1)
					other := uint32(rng.Int63())&f.Mask() | 2
					for _, scale := range []*uint32{nil, &one, &other} {
						checkAccum(t, f, randSub(rng, n), srcs, consts, scale)
					}
				}
			}
		}
	})
}

func TestAccumSlicesNilScale(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := MustNew(Bits8)
	dst := randVec(rng, 100)
	src := randVec(rng, 100)
	want := bytes.Clone(dst)
	var tab MulTable
	tab.Init(f, 0x5B)
	mulAddSliceRef(f, want, src, 0x5B)
	AccumSlices(dst, [][]byte{src}, []MulTable{tab}, nil)
	if !bytes.Equal(dst, want) {
		t.Fatal("AccumSlices with nil scale diverges")
	}
}

// TestAccumSlicesRejectsMixedTables: tables of different fields or
// kernels in one call are a caller bug, not something to compute.
func TestAccumSlicesRejectsMixedTables(t *testing.T) {
	var p8, p16 MulTable
	p8.Init(MustNew(Bits8), 3)
	p16.Init(MustNew(Bits16), 3)
	other := p8
	other.kind = kernelWord
	if p8.kind == kernelWord {
		other.kind = kernelAVX2
	}
	for name, tabs := range map[string][]MulTable{"fields": {p8, p16}, "kernels": {p8, other}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mixed %s: no panic", name)
				}
			}()
			AccumSlices(make([]byte, 8), [][]byte{make([]byte, 8), make([]byte, 8)}, tabs, nil)
		}()
	}
}

// TestKernelsAllocFree gates the hot-path entry points at 0 allocations
// under every kernel.
func TestKernelsAllocFree(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for _, bits := range []uint{Bits4, Bits8, Bits16, Bits32} {
			f := MustNew(bits)
			const nsrc, n = 8, 1000
			srcs := make([][]byte, nsrc)
			tabs := make([]MulTable, nsrc)
			for j := range srcs {
				srcs[j] = randVec(rng, n)
				tabs[j].Init(f, uint32(rng.Int63())&f.Mask())
			}
			var scale MulTable
			scale.Init(f, 3)
			dst := randVec(rng, n)
			if a := testing.AllocsPerRun(20, func() { AccumSlices(dst, srcs, tabs, &scale) }); a != 0 {
				t.Errorf("GF(2^%d): AccumSlices %v allocs/op, want 0", bits, a)
			}
			if a := testing.AllocsPerRun(20, func() { MulAddSlice(f, dst, srcs[0], 0x7) }); a != 0 {
				t.Errorf("GF(2^%d): MulAddSlice %v allocs/op, want 0", bits, a)
			}
			if a := testing.AllocsPerRun(20, func() { tabs[1].MulAdd(dst, srcs[1]); tabs[1].Mul(dst) }); a != 0 {
				t.Errorf("GF(2^%d): MulTable.MulAdd/Mul %v allocs/op, want 0", bits, a)
			}
		}
	})
}

// FuzzAccumSlices drives AccumSlices on every kernel with fuzzer-chosen
// lengths, offsets, constants and source counts, against the reference.
func FuzzAccumSlices(f *testing.F) {
	// width picks GF(2^4), GF(2^8), GF(2^16) or GF(2^32) by its value mod 4.
	f.Add(uint8(1), uint16(64), uint8(1), []byte{0x53, 0x00, 0x01, 0xff}, uint8(7), []byte("seed"))
	f.Add(uint8(0), uint16(300), uint8(3), []byte{0x1, 0xf, 0x0, 0x9, 0x2}, uint8(0), []byte{0xAA, 0x55})
	f.Add(uint8(1), uint16(257), uint8(0), []byte{}, uint8(0x1d), []byte{1, 2, 3})
	f.Add(uint8(2), uint16(130), uint8(5), []byte{0x12, 0x34, 0x56, 0x78}, uint8(2), []byte{9})
	f.Add(uint8(3), uint16(68), uint8(2), []byte{0xde, 0xad, 0xbe, 0xef, 0x01}, uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, width uint8, n uint16, off uint8, consts []byte, scaleC uint8, seed []byte) {
		bits := []uint{Bits4, Bits8, Bits16, Bits32}[width%4]
		fld := MustNew(bits)
		size := int(n%1100) &^ (max(int(bits/8), 1) - 1)
		if len(consts) > 20 {
			consts = consts[:20]
		}
		rs := int64(off)
		for _, b := range seed {
			rs = rs*31 + int64(b)
		}
		rng := rand.New(rand.NewSource(rs))
		srcs := make([][]byte, len(consts))
		cs := make([]uint32, len(consts))
		for j := range srcs {
			o := int(off % 16)
			srcs[j] = randVec(rng, size+o)[o:]
			cs[j] = uint32(consts[j]) * 0x01010101 & fld.Mask()
		}
		var scale *uint32
		if scaleC != 0 {
			s := uint32(scaleC) & fld.Mask()
			scale = &s
		}
		dst0 := randVec(rng, size)
		saved := p8Kernel
		defer func() { p8Kernel = saved }()
		for _, k := range kernelsUnderTest() {
			p8Kernel = k
			checkAccum(t, fld, bytes.Clone(dst0), srcs, cs, scale)
		}
	})
}

func TestMulAddWordsMatchesMulLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, bits := range []uint{Bits4, Bits8, Bits16, Bits32} {
		f := MustNew(bits)
		for _, n := range []int{0, 1, 5, 64, 129} {
			for trial := 0; trial < 8; trial++ {
				c := uint32(rng.Int63()) & f.Mask()
				src := make([]uint32, n)
				dst := make([]uint32, n)
				want := make([]uint32, n)
				for i := range src {
					src[i] = uint32(rng.Int63()) & f.Mask()
					dst[i] = uint32(rng.Int63()) & f.Mask()
					want[i] = dst[i] ^ f.Mul(src[i], c)
				}
				MulAddWords(f, dst, src, c)
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("GF(2^%d) c=%#x i=%d: MulAddWords %#x want %#x", bits, c, i, dst[i], want[i])
					}
				}
				scaled := make([]uint32, n)
				copy(scaled, want)
				MulWords(f, scaled, c)
				for i := range scaled {
					if w := f.Mul(want[i], c); scaled[i] != w {
						t.Fatalf("GF(2^%d) c=%#x i=%d: MulWords %#x want %#x", bits, c, i, scaled[i], w)
					}
				}
			}
		}
	}
}

// withKernel runs fn with p8Kernel set to k.
func withKernel(k kernelKind, fn func()) {
	saved := p8Kernel
	defer func() { p8Kernel = saved }()
	p8Kernel = k
	fn()
}

// BenchmarkMulAddSlice measures the one-source kernel once per kernel
// this CPU can run (the one-shot entry point includes its table build),
// against the field's own path and the per-symbol reference.
func BenchmarkMulAddSlice(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, bits := range []uint{Bits8, Bits16, Bits32} {
		f := MustNew(bits)
		// p=16 has one kernel; GF(2^32) has its own kernel at each
		// dispatch level (byte tables, AVX2 nibbles, GFNI matrices).
		kernels := []kernelKind{kernelByteSplit}
		if bits != Bits16 {
			kernels = kernelsUnderTest()
		}
		for _, n := range []int{4096, 16384} {
			src := randVec(rng, n)
			dst := randVec(rng, n)
			c := uint32(0x5A3C96A7) & f.Mask()
			for _, k := range kernels {
				withKernel(k, func() {
					b.Run(fmt.Sprintf("kernel/%s/p%d/%dB", k, bits, n), func(b *testing.B) {
						b.SetBytes(int64(n))
						for i := 0; i < b.N; i++ {
							MulAddSlice(f, dst, src, c)
						}
					})
					b.Run(fmt.Sprintf("table/%s/p%d/%dB", k, bits, n), func(b *testing.B) {
						var tab MulTable
						tab.Init(f, c)
						b.SetBytes(int64(n))
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							tab.MulAdd(dst, src)
						}
					})
				})
			}
			b.Run(fmt.Sprintf("field/p%d/%dB", bits, n), func(b *testing.B) {
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					f.AddScaledSlice(dst, src, c)
				}
			})
			b.Run(fmt.Sprintf("persym/p%d/%dB", bits, n), func(b *testing.B) {
				b.SetBytes(int64(n))
				for i := 0; i < b.N; i++ {
					mulAddSliceRef(f, dst, src, c)
				}
			})
		}
	}
}

// BenchmarkAccumSlices measures the fused multi-source kernel at the
// shape the encoder and pipeline use it, per kernel: fold r source rows
// into one 16 KiB destination, tables built inside the loop as the
// callers do, against a per-row MulAdd loop over the same tables.
func BenchmarkAccumSlices(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	f := MustNew(Bits8)
	const n = 16384
	for _, nsrc := range []int{8, 32, 64} {
		srcs := make([][]byte, nsrc)
		consts := make([]uint32, nsrc)
		tabs := make([]MulTable, nsrc)
		for j := range srcs {
			srcs[j] = randVec(rng, n)
			consts[j] = uint32(rng.Int63())&f.Mask() | 1
		}
		dst := randVec(rng, n)
		for _, k := range kernelsUnderTest() {
			withKernel(k, func() {
				b.Run(fmt.Sprintf("fused/%s/r%d", k, nsrc), func(b *testing.B) {
					b.SetBytes(int64(n * nsrc))
					for i := 0; i < b.N; i++ {
						for j, c := range consts {
							tabs[j].Init(f, c)
						}
						AccumSlices(dst, srcs, tabs, nil)
					}
				})
				b.Run(fmt.Sprintf("perrow/%s/r%d", k, nsrc), func(b *testing.B) {
					b.SetBytes(int64(n * nsrc))
					for i := 0; i < b.N; i++ {
						for j, c := range consts {
							tabs[j].Init(f, c)
							tabs[j].MulAdd(dst, srcs[j])
						}
					}
				})
			})
		}
	}
}
