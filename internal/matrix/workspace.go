package matrix

// Workspace is an arena of reusable scratch matrices, vectors and LU
// factorizations for the solver hot loops. A caller checks a buffer out
// with Get/GetVec/GetLU, uses it, and checks it back in with
// Put/PutVec/PutLU; buffers are recycled by size, so a fixed-point
// iteration that solves the same-shaped systems hundreds of times touches
// the allocator only on its first pass.
//
// A Workspace is deliberately not synchronized: solves are
// single-goroutine, so each worker owns its own Workspace (the sweep
// harness creates one per trial solve). Buffers returned by Get are
// zeroed; buffers returned by GetLU carry no factorization until Reset.
type Workspace struct {
	mats map[int64][]*Dense
	vecs map[int][][]float64
	lus  map[int][]*LU
}

// NewWorkspace returns an empty arena.
func NewWorkspace() *Workspace {
	return &Workspace{
		mats: make(map[int64][]*Dense),
		vecs: make(map[int][][]float64),
		lus:  make(map[int][]*LU),
	}
}

func matKey(r, c int) int64 { return int64(r)<<32 | int64(uint32(c)) }

// Get checks out a zeroed r×c scratch matrix.
func (w *Workspace) Get(r, c int) *Dense {
	key := matKey(r, c)
	if pool := w.mats[key]; len(pool) > 0 {
		m := pool[len(pool)-1]
		w.mats[key] = pool[:len(pool)-1]
		m.Zero()
		return m
	}
	return New(r, c)
}

// Put returns matrices to the arena. Nil entries are ignored, so error
// paths can return whatever they hold without nil checks.
func (w *Workspace) Put(ms ...*Dense) {
	for _, m := range ms {
		if m == nil {
			continue
		}
		key := matKey(m.rows, m.cols)
		w.mats[key] = append(w.mats[key], m)
	}
}

// GetVec checks out a zeroed length-n scratch vector.
func (w *Workspace) GetVec(n int) []float64 {
	if pool := w.vecs[n]; len(pool) > 0 {
		v := pool[len(pool)-1]
		w.vecs[n] = pool[:len(pool)-1]
		clear(v)
		return v
	}
	return make([]float64, n)
}

// PutVec returns vectors to the arena. Nil entries are ignored.
func (w *Workspace) PutVec(vs ...[]float64) {
	for _, v := range vs {
		if v == nil {
			continue
		}
		w.vecs[len(v)] = append(w.vecs[len(v)], v)
	}
}

// GetLU checks out an order-n LU shell; call Reset on it to factorize.
func (w *Workspace) GetLU(n int) *LU {
	if pool := w.lus[n]; len(pool) > 0 {
		f := pool[len(pool)-1]
		w.lus[n] = pool[:len(pool)-1]
		return f
	}
	return NewLU(n)
}

// PutLU returns LU shells to the arena. Nil entries are ignored.
func (w *Workspace) PutLU(fs ...*LU) {
	for _, f := range fs {
		if f == nil {
			continue
		}
		n := f.lu.rows
		w.lus[n] = append(w.lus[n], f)
	}
}

// Held returns how many matrices, vectors and LU shells the arena holds
// checked in: what it retains between solves.
func (w *Workspace) Held() (mats, vecs, lus int) {
	for _, pool := range w.mats {
		mats += len(pool)
	}
	for _, pool := range w.vecs {
		vecs += len(pool)
	}
	for _, pool := range w.lus {
		lus += len(pool)
	}
	return mats, vecs, lus
}
