//go:build !amd64

package gf

// Non-amd64 hosts have no vector kernels: the pure-Go word kernels in
// kernel.go carry the load, so the vector entry points are never reached.

func detectKernel() kernelKind { return kernelWord }

func accumGFNI(dst *byte, n int, srcs *[]byte, nsrc int, mats *uint64, stride uintptr, scale uint64) {
	panic("gf: no GFNI kernel on this architecture")
}

func gf32AffineGFNI(mats *[16]uint64, dst, src *byte, n int, add bool) {
	panic("gf: no GFNI kernel on this architecture")
}

func gf32NibbleAVX2(tbls *[32][32]byte, dst, src *byte, n int, add bool) {
	panic("gf: no AVX2 kernel on this architecture")
}

func mulAddVecP8(lo, hi *[16]byte, dst, src []byte) int {
	panic("gf: no AVX2 kernel on this architecture")
}
func mulVecP8(lo, hi *[16]byte, dst []byte) int { panic("gf: no AVX2 kernel on this architecture") }
