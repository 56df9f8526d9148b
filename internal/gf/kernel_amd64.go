package gf

// CPU dispatch for the region kernels (see kernel_amd64.s).

//go:noescape
func accumGFNI(dst *byte, n int, srcs *[]byte, nsrc int, mats *uint64, stride uintptr, scale uint64)

//go:noescape
func gf32AffineGFNI(mats *[16]uint64, dst, src *byte, n int, add bool)

//go:noescape
func gf32NibbleAVX2(tbls *[32][32]byte, dst, src *byte, n int, add bool)

//go:noescape
func mulAddAsmP8(lo, hi *[16]byte, dst, src *byte, n int)

//go:noescape
func mulAsmP8(lo, hi *[16]byte, dst *byte, n int)

func cpuidex(op, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// cpuRegs holds the CPUID and XCR0 bits the kernel choice depends on.
type cpuRegs struct {
	maxID uint32 // CPUID.0:EAX, highest standard leaf
	ecx1  uint32 // CPUID.1:ECX
	ebx7  uint32 // CPUID.(7,0):EBX
	ecx7  uint32 // CPUID.(7,0):ECX
	xcr0  uint32 // XCR0 low word, read only when the OS enabled XSAVE
}

func detectKernel() kernelKind {
	var r cpuRegs
	r.maxID, _, _, _ = cpuidex(0, 0)
	if r.maxID >= 7 {
		_, _, r.ecx1, _ = cpuidex(1, 0)
		_, r.ebx7, r.ecx7, _ = cpuidex(7, 0)
		if r.ecx1&(1<<27) != 0 { // OSXSAVE: XGETBV is available
			r.xcr0, _ = xgetbv0()
		}
	}
	return pickKernel(r)
}

// pickKernel chooses the fastest kernel the CPU and OS support. GFNI
// runs on 512-bit registers and byte masks, so it needs AVX512F,
// AVX512BW and GFNI, and the OS must save the xmm, ymm, opmask and
// upper zmm state (XCR0 bits 1, 2, 5, 6, 7). AVX2 needs AVX, AVX2 and
// saved xmm/ymm state.
func pickKernel(r cpuRegs) kernelKind {
	const (
		osxsave  = 1 << 27 // CPUID.1:ECX
		avx      = 1 << 28 // CPUID.1:ECX
		avx2     = 1 << 5  // CPUID.7:EBX
		avx512f  = 1 << 16 // CPUID.7:EBX
		avx512bw = 1 << 30 // CPUID.7:EBX
		gfni     = 1 << 8  // CPUID.7:ECX
		xmmYmm   = 0x06
		zmmState = 0xE6
	)
	if r.maxID < 7 || r.ecx1&osxsave == 0 || r.ecx1&avx == 0 || r.xcr0&xmmYmm != xmmYmm {
		return kernelWord
	}
	if r.ebx7&(avx512f|avx512bw) == avx512f|avx512bw && r.ecx7&gfni != 0 && r.xcr0&zmmState == zmmState {
		return kernelGFNI
	}
	if r.ebx7&avx2 != 0 {
		return kernelAVX2
	}
	return kernelWord
}

// mulAddVecP8 runs the AVX2 kernel over the 32-byte-aligned bulk and
// returns the number of bytes handled; the caller finishes the tail.
func mulAddVecP8(lo, hi *[16]byte, dst, src []byte) int {
	n := len(src) &^ 31
	if n > 0 {
		mulAddAsmP8(lo, hi, &dst[0], &src[0], n)
	}
	return n
}

func mulVecP8(lo, hi *[16]byte, dst []byte) int {
	n := len(dst) &^ 31
	if n > 0 {
		mulAsmP8(lo, hi, &dst[0], n)
	}
	return n
}
