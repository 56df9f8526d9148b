package gf

import "testing"

// TestPickKernel checks the kernel choice on synthetic CPUID/XCR0
// values: each feature bit and each piece of OS-saved register state
// the GFNI and AVX2 kernels need is removed in turn.
func TestPickKernel(t *testing.T) {
	full := cpuRegs{
		maxID: 7,
		ecx1:  1<<27 | 1<<28,        // OSXSAVE, AVX
		ebx7:  1<<5 | 1<<16 | 1<<30, // AVX2, AVX512F, AVX512BW
		ecx7:  1 << 8,               // GFNI
		xcr0:  0xE7,                 // x87, xmm, ymm, opmask, zmm
	}
	cases := []struct {
		name string
		edit func(*cpuRegs)
		want kernelKind
	}{
		{"all features", func(*cpuRegs) {}, kernelGFNI},
		{"no GFNI", func(r *cpuRegs) { r.ecx7 = 0 }, kernelAVX2},
		{"no AVX512BW", func(r *cpuRegs) { r.ebx7 &^= 1 << 30 }, kernelAVX2},
		{"no AVX512F", func(r *cpuRegs) { r.ebx7 &^= 1 << 16 }, kernelAVX2},
		{"OS saves no zmm state", func(r *cpuRegs) { r.xcr0 = 0x07 }, kernelAVX2},
		{"OS saves no opmask state", func(r *cpuRegs) { r.xcr0 &^= 1 << 5 }, kernelAVX2},
		{"OS saves no upper zmm", func(r *cpuRegs) { r.xcr0 &^= 1 << 7 }, kernelAVX2},
		{"no AVX2 nor AVX-512", func(r *cpuRegs) { r.ebx7 = 0 }, kernelWord},
		{"GFNI without AVX2", func(r *cpuRegs) { r.ebx7 = 1<<16 | 1<<30 }, kernelGFNI},
		{"OS saves no ymm state", func(r *cpuRegs) { r.xcr0 = 0x03 }, kernelWord},
		{"no OSXSAVE", func(r *cpuRegs) { r.ecx1 &^= 1 << 27; r.xcr0 = 0 }, kernelWord},
		{"no AVX", func(r *cpuRegs) { r.ecx1 &^= 1 << 28 }, kernelWord},
		{"leaf 7 missing", func(r *cpuRegs) { r.maxID = 6 }, kernelWord},
	}
	for _, tc := range cases {
		r := full
		tc.edit(&r)
		if got := pickKernel(r); got != tc.want {
			t.Errorf("%s: pickKernel = %v, want %v", tc.name, got, tc.want)
		}
	}
}
