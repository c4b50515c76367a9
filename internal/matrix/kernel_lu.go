package matrix

// LU kernels: the elimination row update of Reset and the interleaved
// substitution steps of InverseTo. Like the dense-panel kernel these
// are pure element-wise / lane-parallel operations — every element (or
// every column lane) carries its own serial rounded-operation chain in
// the same order at any vector width — so the amd64 AVX2 variants are
// bitwise identical to the Go loops below, and dispatch is the same
// static CPU check (kernel_amd64.go).

// elimRowGo applies one elimination step of Gaussian elimination:
// dst[j] -= m·src[j]. Element-wise, no accumulator, so vector width
// cannot change bits.
func elimRowGo(dst, src []float64, m float64) {
	for j := range dst {
		dst[j] -= m * src[j]
	}
}

// fwdStep8Go performs one row of forward substitution for eight
// interleaved unit columns: with cnt = len(row),
//
//	acc[c] = row[0]·x[0·8+c] + … + row[cnt−1]·x[(cnt−1)·8+c]
//	x[cnt·8+c] -= acc[c]
//
// for c = 0..7. Each column lane c is a private left-to-right chain
// from a +0 accumulator — the exact operation sequence of solving that
// column alone — so SIMD lanes reproduce it bit for bit.
func fwdStep8Go(x []float64, row []float64) {
	var acc [8]float64
	for t, v := range row {
		xt := x[t*8 : t*8+8 : t*8+8]
		for c := range acc {
			acc[c] += v * xt[c]
		}
	}
	xi := x[len(row)*8 : len(row)*8+8]
	for c := range acc {
		xi[c] -= acc[c]
	}
}

// backStep8Go performs one row of back substitution for eight
// interleaved columns: with cnt = len(row),
//
//	acc[c] = row[0]·x[1·8+c] + … + row[cnt−1]·x[cnt·8+c]
//	x[c] = (x[c] − acc[c]) / d
//
// for c = 0..7, where d is the diagonal pivot. Same per-lane chain
// discipline as fwdStep8Go; the division is element-wise.
func backStep8Go(x []float64, row []float64, d float64) {
	var acc [8]float64
	for t, v := range row {
		xt := x[(t+1)*8 : (t+1)*8+8 : (t+1)*8+8]
		for c := range acc {
			acc[c] += v * xt[c]
		}
	}
	for c := range acc {
		x[c] = (x[c] - acc[c]) / d
	}
}
