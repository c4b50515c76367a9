//go:build amd64

package matrix

// The AVX2 kernels. Each keeps the exact per-element (axpyPanel8,
// elimRow) or per-column-lane (fwdStep8, backStep8) operation sequence
// of its Go loop — multiplies and adds stay separate instructions
// (VMULPD then VADDPD, never FMA, which would fuse each pair into one
// rounding) and the accumulator chains stay left-associated in term
// order — so AVX2 and Go are bitwise interchangeable and the choice is a
// one-time CPU check rather than an opt-in.
//
// The dispatchers below call both variants directly. A call through a
// function value would make the compiler assume the coefficient panel
// escapes, so mulRow would heap-allocate it on every all-nonzero panel.

//go:noescape
func axpyPanel8AVX2(ci *float64, b *float64, ldb, n int, a *[8]float64)

//go:noescape
func elimRowAVX2(dst, src *float64, n int, m float64)

//go:noescape
func fwdStep8AVX2(x, row *float64, cnt int)

//go:noescape
func backStep8AVX2(x, row *float64, cnt int, d float64)

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// useAVX2 selects the AVX2 kernels; without AVX2 every kernel runs its
// Go loop.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU and the OS together support AVX2:
// CPUID.1:ECX must advertise OSXSAVE and AVX, XCR0 must show the OS
// saves both XMM and YMM state, and CPUID.7.0:EBX must advertise AVX2.
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// axpyPanel8 accumulates the 8-row coefficient panel into ci.
func axpyPanel8(ci, b []float64, ldb int, a *[8]float64) {
	if !useAVX2 {
		axpyPanel8Go(ci, b, ldb, a)
		return
	}
	if len(ci) == 0 {
		return
	}
	axpyPanel8AVX2(&ci[0], &b[0], ldb, len(ci), a)
}

func elimRow(dst, src []float64, m float64) {
	if !useAVX2 {
		elimRowGo(dst, src, m)
		return
	}
	if len(dst) == 0 {
		return
	}
	elimRowAVX2(&dst[0], &src[0], len(dst), m)
}

func fwdStep8(x []float64, row []float64) {
	if !useAVX2 {
		fwdStep8Go(x, row)
		return
	}
	fwdStep8AVX2(&x[0], rowPtr(row), len(row))
}

func backStep8(x []float64, row []float64, d float64) {
	if !useAVX2 {
		backStep8Go(x, row, d)
		return
	}
	backStep8AVX2(&x[0], rowPtr(row), len(row), d)
}

// rowPtr tolerates the empty coefficient row (the last back-substitution
// row has no terms above the diagonal): the kernels never dereference
// the row pointer when cnt is zero.
func rowPtr(row []float64) *float64 {
	if len(row) == 0 {
		return nil
	}
	return &row[0]
}
