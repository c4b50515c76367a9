package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/certify"
	"repro/internal/core"
)

// argmin returns the x whose column value is smallest.
func argmin(t *Table, col int) float64 {
	best, bx := math.Inf(1), 0.0
	for _, row := range t.Rows {
		if row[col] >= 0 && row[col] < best {
			best, bx = row[col], row[0]
		}
	}
	return bx
}

func colAt(t *Table, x float64, col int) float64 {
	for _, row := range t.Rows {
		if row[0] == x {
			return row[col]
		}
	}
	return math.NaN()
}

func TestFigure2Shape(t *testing.T) {
	tab, err := Figure2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(QuantumSweep) {
		t.Fatalf("%d rows, want %d", len(tab.Rows), len(QuantumSweep))
	}
	// Every class is stable at rho = 0.4 across the sweep.
	for _, row := range tab.Rows {
		for p := 1; p <= 4; p++ {
			if row[p] < 0 {
				t.Fatalf("unexpected instability at quantum %g class %d", row[0], p-1)
			}
		}
	}
	// Short-service classes (2, 3) show the paper's U-shape: the endpoint
	// at quantum 6 sits above the minimum.
	for _, p := range []int{3, 4} {
		min := math.Inf(1)
		for _, row := range tab.Rows {
			if row[p] < min {
				min = row[p]
			}
		}
		end := colAt(tab, 6, p)
		if end < min*1.05 {
			t.Fatalf("class %d: no rise after knee (min %g, at q=6 %g)", p-1, min, end)
		}
	}
	// The left end (quantum comparable to overhead) is worse than the knee
	// for every class: context-switch dominance.
	for p := 1; p <= 4; p++ {
		left := tab.Rows[0][p]
		min := math.Inf(1)
		for _, row := range tab.Rows {
			if row[p] < min {
				min = row[p]
			}
		}
		if left < min*1.01 {
			t.Fatalf("class %d: left end %g not above minimum %g", p-1, left, min)
		}
	}
}

func TestFigure3HeavierLoadKneesCloser(t *testing.T) {
	f2, err := Figure2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	f3, err := Figure3(Options{})
	if err != nil {
		t.Fatal(err)
	}
	spread := func(tab *Table) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for p := 1; p <= 4; p++ {
			x := argmin(tab, p)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return hi - lo
	}
	// The paper: "The heavier the system load, the closer to each other
	// are the knee points of the curves."
	if spread(f3) > spread(f2) {
		t.Fatalf("knee spread at rho=0.9 (%g) exceeds rho=0.4 (%g)", spread(f3), spread(f2))
	}
	// At rho = 0.9 every class's population is much larger than at 0.4.
	for p := 1; p <= 4; p++ {
		if colAt(f3, 1, p) < 3*colAt(f2, 1, p) {
			t.Fatalf("class %d: rho=0.9 N (%g) not ≫ rho=0.4 N (%g)",
				p-1, colAt(f3, 1, p), colAt(f2, 1, p))
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	tab, err := Figure4(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 4; p++ {
		// Monotone decreasing in service rate.
		for i := 1; i < len(tab.Rows); i++ {
			if tab.Rows[i][p] > tab.Rows[i-1][p]+1e-9 {
				t.Fatalf("class %d: N not decreasing at mu=%g", p-1, tab.Rows[i][0])
			}
		}
		// Flattening: early drop dwarfs the late drop.
		early := colAt(tab, 2, p) - colAt(tab, 8, p)
		late := colAt(tab, 14, p) - colAt(tab, 20, p)
		if early < 5*late {
			t.Fatalf("class %d: no flattening (early drop %g, late drop %g)", p-1, early, late)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	tab, err := Figure5(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// N_p decreases monotonically in the class's own share of the cycle.
	for p := 1; p <= 4; p++ {
		for i := 1; i < len(tab.Rows); i++ {
			if tab.Rows[i][p] > tab.Rows[i-1][p]*1.001 {
				t.Fatalf("class %d: N not decreasing at share %g (%g -> %g)",
					p-1, tab.Rows[i][0], tab.Rows[i-1][p], tab.Rows[i][p])
			}
		}
	}
}

func TestAblationHeavyVsFixedPoint(t *testing.T) {
	tab, err := AblationHeavyVsFixedPoint(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The fixed point never exceeds the heavy-traffic bound, and the
	// relative gap shrinks with load.
	var gaps []float64
	for _, row := range tab.Rows {
		heavy, fixed := row[1], row[2]
		if fixed > heavy*1.001 {
			t.Fatalf("fixed point %g above heavy-traffic %g at rho=%g", fixed, heavy, row[0])
		}
		gaps = append(gaps, (heavy-fixed)/heavy)
	}
	if gaps[len(gaps)-1] > gaps[0] {
		t.Fatalf("gap should shrink with load: %v", gaps)
	}
}

func TestAblationFitOrderInsensitive(t *testing.T) {
	tab, err := AblationFitOrder(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The reduction is moment-driven; the order cap should move total N
	// by at most a few percent.
	base := tab.Rows[len(tab.Rows)-1][1]
	for _, row := range tab.Rows {
		if math.Abs(row[1]-base)/base > 0.05 {
			t.Fatalf("order %g changes total N by >5%%: %g vs %g", row[0], row[1], base)
		}
	}
}

func TestAblationQuantumShape(t *testing.T) {
	tab, err := AblationQuantumShape(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for p := 1; p <= 4; p++ {
			if row[p] <= 0 {
				t.Fatalf("scv=%g class %d: N = %g", row[0], p-1, row[p])
			}
		}
	}
}

func TestAblationOverheadMonotone(t *testing.T) {
	tab, err := AblationOverhead(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// More switching waste can only hurt (until instability, marked -1).
	for p := 1; p <= 4; p++ {
		prev := 0.0
		for _, row := range tab.Rows {
			if row[p] < 0 {
				continue // past the stability boundary
			}
			if row[p] < prev*0.999 {
				t.Fatalf("class %d: N decreased with overhead at %g", p-1, row[0])
			}
			prev = row[p]
		}
	}
}

func TestDecompositionErrorBrackets(t *testing.T) {
	tab, err := DecompositionError(Options{})
	if err != nil {
		t.Fatal(err)
	}
	prevErr := 0.0
	for _, row := range tab.Rows {
		exact, fixed, heavy := row[1], row[2], row[3]
		if !(fixed <= exact*1.02 && exact <= heavy*1.02) {
			t.Fatalf("rho=%g: exact %g not bracketed by fixed %g / heavy %g",
				row[0], exact, fixed, heavy)
		}
		// The fixed point's (negative) error grows in magnitude with load.
		if row[4] > prevErr+1e-9 {
			t.Fatalf("fixed-point error not worsening with load: %v", tab.Rows)
		}
		prevErr = row[4]
	}
}

func TestTransientWarmup(t *testing.T) {
	tab, err := TransientWarmup(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Rows[0][0] != 0 {
		t.Fatalf("first row should be t=0")
	}
	for p := 1; p <= 4; p++ {
		if tab.Rows[0][p] != 0 {
			t.Fatalf("class %d: N(0) = %g, want 0", p-1, tab.Rows[0][p])
		}
		// Monotone rise from empty.
		for i := 1; i < len(tab.Rows); i++ {
			if tab.Rows[i][p] < tab.Rows[i-1][p]-1e-9 {
				t.Fatalf("class %d: transient not monotone at t=%g", p-1, tab.Rows[i][0])
			}
		}
		// Near-converged by the last time point.
		last, prev := tab.Rows[len(tab.Rows)-1][p], tab.Rows[len(tab.Rows)-2][p]
		if (last-prev)/last > 0.01 {
			t.Fatalf("class %d: transient still moving at the horizon (%g -> %g)", p-1, prev, last)
		}
	}
}

func TestBatchSensitivity(t *testing.T) {
	tab, err := BatchSensitivity(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if math.Abs(row[1]-row[2])/row[2] > 0.02 {
			t.Fatalf("batch %g: N = %g, closed form %g", row[0], row[1], row[2])
		}
	}
	// Monotone in batch size.
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i][1] <= tab.Rows[i-1][1] {
			t.Fatalf("N not increasing in batch size")
		}
	}
}

func TestChartRendersFigures(t *testing.T) {
	tab, err := AblationOverhead(Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := tab.Chart(0).Render()
	if !strings.Contains(out, "legend:") || !strings.Contains(out, "N0") {
		t.Fatalf("chart missing content:\n%s", out)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		XLabel:  "x",
		Columns: []string{"a", "b"},
		Rows:    [][]float64{{1, 2, 3}, {4, 5, 6}},
	}
	s := tab.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "a") {
		t.Fatalf("String() missing content:\n%s", s)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "x,a,b\n1,2,3\n") {
		t.Fatalf("CSV wrong:\n%s", csv)
	}
}

func TestPaperModelUtilization(t *testing.T) {
	m := PaperModel(same4(0.4), PaperServiceRates, same4(1), 0.01)
	if math.Abs(m.Utilization()-0.4) > 1e-9 {
		t.Fatalf("utilization = %g, want 0.4", m.Utilization())
	}
}

func TestArrivalVariability(t *testing.T) {
	tab, err := ArrivalVariability(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Class 0 (eight single-processor partitions): burstier arrivals
	// shorten the effective cycle and reduce N — a genuine gang-scheduling
	// effect, confirmed by simulation (see the table notes).
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i][1] > tab.Rows[i-1][1]+1e-9 {
			t.Fatalf("class 0 N not decreasing in arrival SCV: %v", tab.Rows)
		}
	}
	for _, row := range tab.Rows {
		for p := 1; p <= 4; p++ {
			if row[p] <= 0 {
				t.Fatalf("scv=%g class %d: N=%g", row[0], p-1, row[p])
			}
		}
	}
}

func TestMachineScaling(t *testing.T) {
	tab, err := MachineScaling(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for i := 1; i < len(tab.Rows); i++ {
		// The optimal quantum shrinks as the machine grows: a larger
		// partition pool drains its queue within a shorter slice.
		if tab.Rows[i][1] >= tab.Rows[i-1][1] {
			t.Fatalf("optimal quantum not shrinking with P: %v", tab.Rows)
		}
	}
	for _, row := range tab.Rows {
		// Total N stays within a small factor of linear in P.
		perProc := row[3]
		if perProc < 0.5 || perProc > 3 {
			t.Fatalf("P=%g: N/processor = %g implausible", row[0], perProc)
		}
	}
}

// TestTablesRefuseUnconvergedFixedPoints: with a two-round budget no
// multi-class fixed point converges, and every table built from one
// fails with a not-converged error that names the table and the point, instead of printing a row that is not a fixed point.
func TestTablesRefuseUnconvergedFixedPoints(t *testing.T) {
	opts := Options{Solve: core.SolveOptions{MaxIterations: 2}}
	for _, tc := range []struct {
		name string
		run  func(Options) (*Table, error)
		want string
	}{
		{"A1", AblationHeavyVsFixedPoint, "A1 rho 0.2"},
		{"A2", AblationFitOrder, "A2 order 2"},
		{"A3", AblationQuantumShape, "A3 scv 0.25"},
		{"A4", AblationOverhead, "A4 overhead 0.001"},
		{"A7", DecompositionError, "A7 rho 0.2"},
		{"A8", ArrivalVariability, "A8 scv 0.25"},
		{"Figure 2", Figure2, "quantum 0.1"},
	} {
		tab, err := tc.run(opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) ||
			!strings.Contains(err.Error(), certify.ErrNotConverged.Error()) {
			t.Fatalf("%s: table %v, error %v; want a not-converged error naming %q", tc.name, tab != nil, err, tc.want)
		}
	}
}
