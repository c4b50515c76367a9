//go:build !amd64

package matrix

// Off amd64 every kernel is its portable Go loop.

func axpyPanel8(ci, b []float64, ldb int, a *[8]float64) {
	axpyPanel8Go(ci, b, ldb, a)
}

func elimRow(dst, src []float64, m float64) {
	elimRowGo(dst, src, m)
}

func fwdStep8(x []float64, row []float64) {
	fwdStep8Go(x, row)
}

func backStep8(x []float64, row []float64, d float64) {
	backStep8Go(x, row, d)
}
