// GF(2^8) and packed GF(2^4) region kernels (see kernel.go).
//
// accumGFNI multiplies with VGF2P8AFFINEQB: each constant is an 8x8
// GF(2) matrix, applied to 64 bytes per instruction, and the
// accumulators stay in ZMM registers across every source.
//
// The AVX2 kernels use the nibble split: the low/high nibble product
// tables (16 bytes each) are exactly PSHUFB shuffle masks, so broadcast
// each table into both ymm lanes and one shuffle per nibble half
// computes c*s for 32 packed symbols at once.

#include "textflag.h"

// func accumGFNI(dst *byte, n int, srcs *[]byte, nsrc int, mats *uint64, stride uintptr, scale uint64)
// dst[i] = S*(dst[i] ^ Σ_j M_j*srcs[j][i]) for i < n, where srcs points
// at nsrc consecutive slice headers, M_j is the matrix at mats+j*stride
// and S is scale; the identity matrix skips the final product. Requires
// AVX512F, AVX512BW and GFNI; n must be positive. Whole 256- and 64-byte
// blocks run unmasked, the last partial block under a byte mask.
TEXT ·accumGFNI(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), DX
	MOVQ srcs+16(FP), R8
	MOVQ nsrc+24(FP), R9
	MOVQ mats+32(FP), R10
	MOVQ stride+40(FP), R11
	MOVQ scale+48(FP), CX
	VPBROADCASTQ CX, Z31
	MOVQ $0x0102040810204080, BX
	XORQ BX, CX                 // CX == 0: no final product
	XORQ AX, AX                 // byte offset into dst and every source

block256:
	LEAQ 256(AX), R12
	CMPQ R12, DX
	JA   block64
	VMOVDQU64 (DI)(AX*1), Z0
	VMOVDQU64 64(DI)(AX*1), Z1
	VMOVDQU64 128(DI)(AX*1), Z2
	VMOVDQU64 192(DI)(AX*1), Z3
	MOVQ R8, R12
	MOVQ R10, R13
	MOVQ R9, SI
	TESTQ SI, SI
	JZ   scale256

src256:
	MOVQ (R12), BX
	VPBROADCASTQ (R13), Z8
	VMOVDQU64 (BX)(AX*1), Z4
	VMOVDQU64 64(BX)(AX*1), Z5
	VMOVDQU64 128(BX)(AX*1), Z6
	VMOVDQU64 192(BX)(AX*1), Z7
	VGF2P8AFFINEQB $0, Z8, Z4, Z4
	VGF2P8AFFINEQB $0, Z8, Z5, Z5
	VGF2P8AFFINEQB $0, Z8, Z6, Z6
	VGF2P8AFFINEQB $0, Z8, Z7, Z7
	VPXORQ Z4, Z0, Z0
	VPXORQ Z5, Z1, Z1
	VPXORQ Z6, Z2, Z2
	VPXORQ Z7, Z3, Z3
	ADDQ $24, R12
	ADDQ R11, R13
	DECQ SI
	JNZ  src256

scale256:
	TESTQ CX, CX
	JZ   store256
	VGF2P8AFFINEQB $0, Z31, Z0, Z0
	VGF2P8AFFINEQB $0, Z31, Z1, Z1
	VGF2P8AFFINEQB $0, Z31, Z2, Z2
	VGF2P8AFFINEQB $0, Z31, Z3, Z3

store256:
	VMOVDQU64 Z0, (DI)(AX*1)
	VMOVDQU64 Z1, 64(DI)(AX*1)
	VMOVDQU64 Z2, 128(DI)(AX*1)
	VMOVDQU64 Z3, 192(DI)(AX*1)
	ADDQ $256, AX
	JMP  block256

block64:
	LEAQ 64(AX), R12
	CMPQ R12, DX
	JA   tail
	VMOVDQU64 (DI)(AX*1), Z0
	MOVQ R8, R12
	MOVQ R10, R13
	MOVQ R9, SI
	TESTQ SI, SI
	JZ   scale64

src64:
	MOVQ (R12), BX
	VPBROADCASTQ (R13), Z8
	VMOVDQU64 (BX)(AX*1), Z4
	VGF2P8AFFINEQB $0, Z8, Z4, Z4
	VPXORQ Z4, Z0, Z0
	ADDQ $24, R12
	ADDQ R11, R13
	DECQ SI
	JNZ  src64

scale64:
	TESTQ CX, CX
	JZ   store64
	VGF2P8AFFINEQB $0, Z31, Z0, Z0

store64:
	VMOVDQU64 Z0, (DI)(AX*1)
	ADDQ $64, AX
	JMP  block64

tail:
	MOVQ CX, R13                // keep the scale flag; CL is the shift count
	MOVQ DX, CX
	SUBQ AX, CX
	JZ   done
	MOVQ $1, R12
	SHLQ CX, R12
	DECQ R12
	KMOVQ R12, K1               // the CX < 64 bytes left
	MOVQ R13, CX
	VMOVDQU8.Z (DI)(AX*1), K1, Z0
	MOVQ R8, R12
	MOVQ R10, R13
	MOVQ R9, SI
	TESTQ SI, SI
	JZ   scaletail

srctail:
	MOVQ (R12), BX
	VPBROADCASTQ (R13), Z8
	VMOVDQU8.Z (BX)(AX*1), K1, Z4
	VGF2P8AFFINEQB $0, Z8, Z4, Z4
	VPXORQ Z4, Z0, Z0
	ADDQ $24, R12
	ADDQ R11, R13
	DECQ SI
	JNZ  srctail

scaletail:
	TESTQ CX, CX
	JZ   storetail
	VGF2P8AFFINEQB $0, Z31, Z0, Z0

storetail:
	VMOVDQU8 Z0, K1, (DI)(AX*1)

done:
	VZEROUPPER
	RET

// func gf32AffineGFNI(mats *[16]uint64, dst, src *byte, n int, add bool)
// dst = C*src (or dst ^= C*src when add) over n bytes of little-endian
// 32-bit symbols, C the product by one GF(2^32) constant given as the
// sixteen byte-to-byte matrices of gf32MatricesInto. VGF2P8AFFINEQB
// applies one matrix per qword, so each 128-byte step first transposes
// its 32 symbols until every qword holds one byte position of 8
// symbols: L's qwords alternate positions 0,1 and H's 2,3, and with
// their qword-swapped copies Lsw and Hsw every output position is four
// affine products, e.g. OL = [M00 M11]·L ^ [M01 M10]·Lsw ^ [M02 M13]·H
// ^ [M03 M12]·Hsw. The inverse transpose restores the symbol layout.
// Requires AVX512F, AVX512BW and GFNI; n must be a positive multiple of
// 128; src may equal dst.
TEXT ·gf32AffineGFNI(SB), NOSPLIT, $0-33
	MOVQ mats+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), DX
	MOVBLZX add+32(FP), CX
	VBROADCASTI32X4 0(AX), Z16        // [M00 M11]
	VBROADCASTI32X4 16(AX), Z17       // [M01 M10]
	VBROADCASTI32X4 32(AX), Z18       // [M02 M13]
	VBROADCASTI32X4 48(AX), Z19       // [M03 M12]
	VBROADCASTI32X4 64(AX), Z20       // [M20 M31]
	VBROADCASTI32X4 80(AX), Z21       // [M21 M30]
	VBROADCASTI32X4 96(AX), Z22       // [M22 M33]
	VBROADCASTI32X4 112(AX), Z23      // [M23 M32]
	VBROADCASTI32X4 gf32Transpose<>(SB), Z24

gf32loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VPSHUFB Z24, Z0, Z0               // per 16-byte lane: dword j = byte j of its 4 symbols
	VPSHUFB Z24, Z1, Z1
	VPUNPCKLDQ Z1, Z0, Z2             // L: qwords of byte 0, byte 1
	VPUNPCKHDQ Z1, Z0, Z3             // H: qwords of byte 2, byte 3
	VPSHUFD $0x4E, Z2, Z4             // Lsw
	VPSHUFD $0x4E, Z3, Z5             // Hsw
	VGF2P8AFFINEQB $0, Z16, Z2, Z6
	VGF2P8AFFINEQB $0, Z17, Z4, Z7
	VPXORQ Z7, Z6, Z6
	VGF2P8AFFINEQB $0, Z18, Z3, Z7
	VPXORQ Z7, Z6, Z6
	VGF2P8AFFINEQB $0, Z19, Z5, Z7
	VPXORQ Z7, Z6, Z6                 // OL: output bytes 0, 1
	VGF2P8AFFINEQB $0, Z20, Z2, Z8
	VGF2P8AFFINEQB $0, Z21, Z4, Z9
	VPXORQ Z9, Z8, Z8
	VGF2P8AFFINEQB $0, Z22, Z3, Z9
	VPXORQ Z9, Z8, Z8
	VGF2P8AFFINEQB $0, Z23, Z5, Z9
	VPXORQ Z9, Z8, Z8                 // OH: output bytes 2, 3
	VPSHUFD $0xD8, Z6, Z6
	VPSHUFD $0xD8, Z8, Z8
	VPUNPCKLQDQ Z8, Z6, Z0
	VPUNPCKHQDQ Z8, Z6, Z1
	VPSHUFB Z24, Z0, Z0
	VPSHUFB Z24, Z1, Z1
	TESTQ CX, CX
	JZ   gf32store
	VPXORQ (DI), Z0, Z0
	VPXORQ 64(DI), Z1, Z1

gf32store:
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $128, DX
	JNZ  gf32loop
	VZEROUPPER
	RET

// func gf32NibbleAVX2(tbls *[32][32]byte, dst, src *byte, n int, add bool)
// The AVX2 counterpart of gf32AffineGFNI: each 128-byte step transposes
// its 32 symbols into V0..V3, V_j holding byte j of 16 symbols per lane
// (a per-lane byte transpose, then a 4x4 dword transpose across the four
// registers), and output byte i is Σ_j lo_ij[V_j&15] ^ hi_ij[V_j>>4],
// thirty-two PSHUFBs over the tables of gf32NibbleTablesInto (lo_ij at
// index 2(4i+j), hi_ij after it). The dword transpose is its own
// inverse, as is the byte transpose. Requires AVX2; n must be a positive
// multiple of 128; src may equal dst.
TEXT ·gf32NibbleAVX2(SB), NOSPLIT, $0-33
	MOVQ tbls+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), DX
	MOVBLZX add+32(FP), CX

nibloop:
	VBROADCASTI128 gf32Transpose<>(SB), Y15
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPSHUFB Y15, Y0, Y0
	VPSHUFB Y15, Y1, Y1
	VPSHUFB Y15, Y2, Y2
	VPSHUFB Y15, Y3, Y3
	VPUNPCKLDQ Y1, Y0, Y4
	VPUNPCKHDQ Y1, Y0, Y5
	VPUNPCKLDQ Y3, Y2, Y6
	VPUNPCKHDQ Y3, Y2, Y7
	VPUNPCKLQDQ Y6, Y4, Y0            // V0
	VPUNPCKHQDQ Y6, Y4, Y1            // V1
	VPUNPCKLQDQ Y7, Y5, Y2            // V2
	VPUNPCKHQDQ Y7, Y5, Y3            // V3
	VMOVDQU nibMask<>(SB), Y15
	VPSRLW $4, Y0, Y4
	VPAND Y15, Y0, Y0            // low nibbles of V0
	VPAND Y15, Y4, Y4            // high nibbles of V0
	VPSRLW $4, Y1, Y5
	VPAND Y15, Y1, Y1            // low nibbles of V1
	VPAND Y15, Y5, Y5            // high nibbles of V1
	VPSRLW $4, Y2, Y6
	VPAND Y15, Y2, Y2            // low nibbles of V2
	VPAND Y15, Y6, Y6            // high nibbles of V2
	VPSRLW $4, Y3, Y7
	VPAND Y15, Y3, Y3            // low nibbles of V3
	VPAND Y15, Y7, Y7            // high nibbles of V3
	VMOVDQU 0(AX), Y12
	VPSHUFB Y0, Y12, Y8
	VMOVDQU 32(AX), Y12
	VPSHUFB Y4, Y12, Y12
	VPXOR Y12, Y8, Y8
	VMOVDQU 64(AX), Y12
	VPSHUFB Y1, Y12, Y12
	VPXOR Y12, Y8, Y8
	VMOVDQU 96(AX), Y12
	VPSHUFB Y5, Y12, Y12
	VPXOR Y12, Y8, Y8
	VMOVDQU 128(AX), Y12
	VPSHUFB Y2, Y12, Y12
	VPXOR Y12, Y8, Y8
	VMOVDQU 160(AX), Y12
	VPSHUFB Y6, Y12, Y12
	VPXOR Y12, Y8, Y8
	VMOVDQU 192(AX), Y12
	VPSHUFB Y3, Y12, Y12
	VPXOR Y12, Y8, Y8
	VMOVDQU 224(AX), Y12
	VPSHUFB Y7, Y12, Y12
	VPXOR Y12, Y8, Y8
	VMOVDQU 256(AX), Y12
	VPSHUFB Y0, Y12, Y9
	VMOVDQU 288(AX), Y12
	VPSHUFB Y4, Y12, Y12
	VPXOR Y12, Y9, Y9
	VMOVDQU 320(AX), Y12
	VPSHUFB Y1, Y12, Y12
	VPXOR Y12, Y9, Y9
	VMOVDQU 352(AX), Y12
	VPSHUFB Y5, Y12, Y12
	VPXOR Y12, Y9, Y9
	VMOVDQU 384(AX), Y12
	VPSHUFB Y2, Y12, Y12
	VPXOR Y12, Y9, Y9
	VMOVDQU 416(AX), Y12
	VPSHUFB Y6, Y12, Y12
	VPXOR Y12, Y9, Y9
	VMOVDQU 448(AX), Y12
	VPSHUFB Y3, Y12, Y12
	VPXOR Y12, Y9, Y9
	VMOVDQU 480(AX), Y12
	VPSHUFB Y7, Y12, Y12
	VPXOR Y12, Y9, Y9
	VMOVDQU 512(AX), Y12
	VPSHUFB Y0, Y12, Y10
	VMOVDQU 544(AX), Y12
	VPSHUFB Y4, Y12, Y12
	VPXOR Y12, Y10, Y10
	VMOVDQU 576(AX), Y12
	VPSHUFB Y1, Y12, Y12
	VPXOR Y12, Y10, Y10
	VMOVDQU 608(AX), Y12
	VPSHUFB Y5, Y12, Y12
	VPXOR Y12, Y10, Y10
	VMOVDQU 640(AX), Y12
	VPSHUFB Y2, Y12, Y12
	VPXOR Y12, Y10, Y10
	VMOVDQU 672(AX), Y12
	VPSHUFB Y6, Y12, Y12
	VPXOR Y12, Y10, Y10
	VMOVDQU 704(AX), Y12
	VPSHUFB Y3, Y12, Y12
	VPXOR Y12, Y10, Y10
	VMOVDQU 736(AX), Y12
	VPSHUFB Y7, Y12, Y12
	VPXOR Y12, Y10, Y10
	VMOVDQU 768(AX), Y12
	VPSHUFB Y0, Y12, Y11
	VMOVDQU 800(AX), Y12
	VPSHUFB Y4, Y12, Y12
	VPXOR Y12, Y11, Y11
	VMOVDQU 832(AX), Y12
	VPSHUFB Y1, Y12, Y12
	VPXOR Y12, Y11, Y11
	VMOVDQU 864(AX), Y12
	VPSHUFB Y5, Y12, Y12
	VPXOR Y12, Y11, Y11
	VMOVDQU 896(AX), Y12
	VPSHUFB Y2, Y12, Y12
	VPXOR Y12, Y11, Y11
	VMOVDQU 928(AX), Y12
	VPSHUFB Y6, Y12, Y12
	VPXOR Y12, Y11, Y11
	VMOVDQU 960(AX), Y12
	VPSHUFB Y3, Y12, Y12
	VPXOR Y12, Y11, Y11
	VMOVDQU 992(AX), Y12
	VPSHUFB Y7, Y12, Y12
	VPXOR Y12, Y11, Y11
	VPUNPCKLDQ Y9, Y8, Y4
	VPUNPCKHDQ Y9, Y8, Y5
	VPUNPCKLDQ Y11, Y10, Y6
	VPUNPCKHDQ Y11, Y10, Y7
	VPUNPCKLQDQ Y6, Y4, Y0
	VPUNPCKHQDQ Y6, Y4, Y1
	VPUNPCKLQDQ Y7, Y5, Y2
	VPUNPCKHQDQ Y7, Y5, Y3
	VBROADCASTI128 gf32Transpose<>(SB), Y15
	VPSHUFB Y15, Y0, Y0
	VPSHUFB Y15, Y1, Y1
	VPSHUFB Y15, Y2, Y2
	VPSHUFB Y15, Y3, Y3
	TESTQ CX, CX
	JZ   nibstore
	VPXOR (DI), Y0, Y0
	VPXOR 32(DI), Y1, Y1
	VPXOR 64(DI), Y2, Y2
	VPXOR 96(DI), Y3, Y3

nibstore:
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $128, DX
	JNZ  nibloop
	VZEROUPPER
	RET


// func mulAddAsmP8(lo, hi *[16]byte, dst, src *byte, n int)
// dst[i] ^= lo[src[i]&0xF] ^ hi[src[i]>>4] for i < n.
// Requires AVX2; n must be a positive multiple of 32.
TEXT ·mulAddAsmP8(SB), NOSPLIT, $0-40
	MOVQ lo+0(FP), AX
	MOVQ hi+8(FP), BX
	MOVQ dst+16(FP), DI
	MOVQ src+24(FP), SI
	MOVQ n+32(FP), DX
	VBROADCASTI128 (AX), Y4
	VBROADCASTI128 (BX), Y5
	VMOVDQU nibMask<>(SB), Y6

loop:
	VMOVDQU (SI), Y0
	VPSRLW  $4, Y0, Y1
	VPAND   Y6, Y0, Y0
	VPAND   Y6, Y1, Y1
	VPSHUFB Y0, Y4, Y2
	VPSHUFB Y1, Y5, Y3
	VPXOR   Y3, Y2, Y2
	VPXOR   (DI), Y2, Y2
	VMOVDQU Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $32, DX
	JNE     loop
	VZEROUPPER
	RET

// func mulAsmP8(lo, hi *[16]byte, dst *byte, n int)
// dst[i] = lo[dst[i]&0xF] ^ hi[dst[i]>>4] for i < n.
// Requires AVX2; n must be a positive multiple of 32.
TEXT ·mulAsmP8(SB), NOSPLIT, $0-32
	MOVQ lo+0(FP), AX
	MOVQ hi+8(FP), BX
	MOVQ dst+16(FP), DI
	MOVQ n+24(FP), DX
	VBROADCASTI128 (AX), Y4
	VBROADCASTI128 (BX), Y5
	VMOVDQU nibMask<>(SB), Y6

scaleloop:
	VMOVDQU (DI), Y0
	VPSRLW  $4, Y0, Y1
	VPAND   Y6, Y0, Y0
	VPAND   Y6, Y1, Y1
	VPSHUFB Y0, Y4, Y2
	VPSHUFB Y1, Y5, Y3
	VPXOR   Y3, Y2, Y2
	VMOVDQU Y2, (DI)
	ADDQ    $32, DI
	SUBQ    $32, DX
	JNE     scaleloop
	VZEROUPPER
	RET

// func cpuidex(op, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

DATA nibMask<>+0(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA nibMask<>+8(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA nibMask<>+16(SB)/8, $0x0F0F0F0F0F0F0F0F
DATA nibMask<>+24(SB)/8, $0x0F0F0F0F0F0F0F0F
GLOBL nibMask<>(SB), RODATA, $32

// gf32Transpose is the PSHUFB mask that transposes each 16-byte lane
// as a 4x4 byte matrix (its own inverse): byte 4j+k <- byte 4k+j.
DATA gf32Transpose<>+0(SB)/8, $0x0D0905010C080400
DATA gf32Transpose<>+8(SB)/8, $0x0F0B07030E0A0602
GLOBL gf32Transpose<>(SB), RODATA, $16
