package matrix

// KronTerm is one term c·(L ⊗ R) of a Kronecker sum built by NewKron.
type KronTerm struct {
	Coef float64
	L, R *Dense
}

// NewKron returns the dense matrix Σ c·(L ⊗ R): the natural form of a
// repeating QBD block in which a service structure composes with a
// phase-type stage (rigid gangs, deep PH service). Entry (i, j) is
// Σ_t fl(c_t·fl(L_t[i/rr, j/rc]·R_t[i%rr, j%rc])) for R factors of
// dimension rr×rc, accumulated in term order over the terms whose two
// factors are both non-zero there. All L factors must share dimensions,
// as must all R factors; at least one term is required.
func NewKron(terms ...KronTerm) *Dense {
	if len(terms) == 0 {
		panic("matrix: NewKron needs at least one term")
	}
	lr, lc := terms[0].L.rows, terms[0].L.cols
	rr, rc := terms[0].R.rows, terms[0].R.cols
	for _, t := range terms {
		if t.L.rows != lr || t.L.cols != lc || t.R.rows != rr || t.R.cols != rc {
			panic("matrix: NewKron factor dimensions differ across terms")
		}
	}
	m := New(lr*rr, lc*rc)
	for _, t := range terms {
		for i := 0; i < m.rows; i++ {
			row := m.data[i*m.cols : (i+1)*m.cols]
			lrow := t.L.data[(i/rr)*lc : (i/rr+1)*lc]
			rrow := t.R.data[(i%rr)*rc : (i%rr+1)*rc]
			for jl, lv := range lrow {
				if lv == 0 {
					continue
				}
				seg := row[jl*rc : (jl+1)*rc]
				for jr, rv := range rrow {
					if rv != 0 {
						seg[jr] += t.Coef * (lv * rv)
					}
				}
			}
		}
	}
	return m
}
