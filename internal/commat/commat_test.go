package commat

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"randperm/internal/xrand"
)

func TestMatrixBasics(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatal("shape wrong")
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("At/Set wrong")
	}
	if got := m.Row(1); got[2] != 7 {
		t.Fatal("Row aliasing wrong")
	}
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) == 5 {
		t.Fatal("Clone not deep")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("Equal on clones should hold")
	}
	if m.Equal(New(2, 2)) {
		t.Fatal("Equal across shapes should fail")
	}
}

func TestMatrixSums(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	if cols := m.ColSums(); cols[0] != 4 || cols[1] != 6 {
		t.Fatalf("column sums wrong: %v", cols)
	}
	if err := m.CheckMargins([]int64{3, 7}, []int64{4, 6}); err != nil {
		t.Fatalf("sums wrong: %v", err)
	}
	if m.Total() != 10 {
		t.Fatalf("total = %d", m.Total())
	}
}

func TestCheckMargins(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 0)
	m.Set(1, 1, 3)
	if err := m.CheckMargins([]int64{3, 3}, []int64{2, 4}); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	if err := m.CheckMargins([]int64{2, 4}, []int64{2, 4}); err == nil {
		t.Fatal("wrong row margins accepted")
	}
	if err := m.CheckMargins([]int64{3, 3}, []int64{3, 3}); err == nil {
		t.Fatal("wrong col margins accepted")
	}
	if err := m.CheckMargins([]int64{3}, []int64{2, 4}); err == nil {
		t.Fatal("wrong shape accepted")
	}
	m.Set(0, 0, -1)
	if err := m.CheckMargins([]int64{0, 3}, []int64{-1, 4}); err == nil {
		t.Fatal("negative entry accepted")
	}
}

func TestString(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 5)
	want := "0 5\n0 0\n"
	if got := m.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestSampleMarginsProperty(t *testing.T) {
	src := xrand.NewXoshiro256(3)
	f := func(rawR, rawC []uint8) bool {
		if len(rawR) == 0 || len(rawC) == 0 {
			return true
		}
		if len(rawR) > 6 {
			rawR = rawR[:6]
		}
		if len(rawC) > 6 {
			rawC = rawC[:6]
		}
		rowM := make([]int64, len(rawR))
		var total int64
		for i, r := range rawR {
			rowM[i] = int64(r % 50)
			total += rowM[i]
		}
		// Build column margins with the same total.
		colM := make([]int64, len(rawC))
		rem := total
		for i := range colM {
			if i == len(colM)-1 {
				colM[i] = rem
			} else {
				share := rem / int64(len(colM)-i)
				colM[i] = share
				rem -= share
			}
		}
		for _, alg := range []func(xrand.Source, []int64, []int64) *Matrix{SampleSeq, SampleRec} {
			m := alg(src, rowM, colM)
			if m.CheckMargins(rowM, colM) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEnumerateCountsKnown(t *testing.T) {
	// 2x2 tables with margins (r1,r2),(c1,c2): the free entry a11
	// ranges over [max(0, r1-c2), min(r1, c1)].
	cases := []struct {
		rowM, colM []int64
		want       int64
	}{
		{[]int64{1, 1}, []int64{1, 1}, 2},
		{[]int64{2, 2}, []int64{2, 2}, 3},
		{[]int64{3, 1}, []int64{2, 2}, 2},
		{[]int64{5, 5}, []int64{5, 5}, 6},
		{[]int64{0, 4}, []int64{2, 2}, 1},
	}
	for _, c := range cases {
		if got := Count(c.rowM, c.colM); got != c.want {
			t.Fatalf("Count(%v,%v) = %d, want %d", c.rowM, c.colM, got, c.want)
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	n := 0
	done := Enumerate([]int64{2, 2}, []int64{2, 2}, func(*Matrix) bool {
		n++
		return n < 2
	})
	if done || n != 2 {
		t.Fatalf("early stop failed: done=%v n=%d", done, n)
	}
}

func TestProbSumsToOne(t *testing.T) {
	cases := []struct{ rowM, colM []int64 }{
		{[]int64{3, 3}, []int64{3, 3}},
		{[]int64{2, 3, 1}, []int64{2, 2, 2}},
		{[]int64{4, 2}, []int64{1, 2, 3}},
		{[]int64{1, 1, 1, 1}, []int64{2, 2}},
	}
	for _, c := range cases {
		sum := 0.0
		Enumerate(c.rowM, c.colM, func(m *Matrix) bool {
			sum += Prob(m, c.rowM, c.colM)
			return true
		})
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Prob over margins %v/%v sums to %g", c.rowM, c.colM, sum)
		}
	}
}

func TestLogProbInvalid(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1)
	if !math.IsInf(LogProb(m, []int64{2, 2}, []int64{2, 2}), -1) {
		t.Fatal("invalid matrix must have probability 0")
	}
}

// chiSquareMatrices tests a matrix sampler against the exact law.
func chiSquareMatrices(t *testing.T, name string, rowM, colM []int64,
	sample func() *Matrix) {
	t.Helper()
	probs := make(map[string]float64)
	Enumerate(rowM, colM, func(m *Matrix) bool {
		probs[m.String()] = Prob(m, rowM, colM)
		return true
	})
	const trials = 30000
	counts := make(map[string]int64)
	for i := 0; i < trials; i++ {
		m := sample()
		key := m.String()
		if _, ok := probs[key]; !ok {
			t.Fatalf("%s: sampled matrix outside the support:\n%s", name, key)
		}
		counts[key]++
	}
	stat := 0.0
	cells := 0
	for key, p := range probs {
		exp := p * trials
		if exp < 1 {
			continue
		}
		d := float64(counts[key]) - exp
		stat += d * d / exp
		cells++
	}
	df := float64(cells - 1)
	z := 3.09
	limit := df * math.Pow(1-2/(9*df)+z*math.Sqrt(2/(9*df)), 3)
	if stat > limit {
		t.Errorf("%s: chi2 = %.1f > %.1f (df %.0f)", name, stat, limit, df)
	}
}

func TestSampleSeqExactDistribution(t *testing.T) {
	src := xrand.NewXoshiro256(5)
	rowM := []int64{3, 3}
	colM := []int64{2, 4}
	chiSquareMatrices(t, "seq 2x2", rowM, colM, func() *Matrix {
		return SampleSeq(src, rowM, colM)
	})
	rowM3 := []int64{2, 2, 2}
	colM3 := []int64{3, 2, 1}
	chiSquareMatrices(t, "seq 3x3", rowM3, colM3, func() *Matrix {
		return SampleSeq(src, rowM3, colM3)
	})
}

func TestSampleRecExactDistribution(t *testing.T) {
	src := xrand.NewXoshiro256(7)
	rowM := []int64{2, 2, 2}
	colM := []int64{3, 2, 1}
	chiSquareMatrices(t, "rec 3x3", rowM, colM, func() *Matrix {
		return SampleRec(src, rowM, colM)
	})
	// Non-square with a zero margin.
	rowM2 := []int64{4, 0, 2}
	colM2 := []int64{3, 3}
	chiSquareMatrices(t, "rec 3x2 zero-row", rowM2, colM2, func() *Matrix {
		return SampleRec(src, rowM2, colM2)
	})
}

func TestSampleMismatchedTotalsPanic(t *testing.T) {
	src := xrand.NewXoshiro256(9)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched totals did not panic")
		}
	}()
	SampleSeq(src, []int64{2, 2}, []int64{1, 2})
}

func TestCoarsenMargins(t *testing.T) {
	src := xrand.NewXoshiro256(11)
	rowM := []int64{3, 4, 5, 6}
	colM := []int64{6, 6, 6}
	m := SampleSeq(src, rowM, colM)
	cm := Coarsen(m, []int{1, 3}, []int{2})
	if err := cm.CheckMargins([]int64{3, 9, 6}, []int64{12, 6}); err != nil {
		t.Fatalf("coarsened margins: %v", err)
	}
	if cm.Total() != m.Total() {
		t.Fatal("coarsening changed the total")
	}
}

func TestCoarsenBadCutsPanic(t *testing.T) {
	m := New(3, 3)
	for _, cuts := range [][]int{{0}, {3}, {2, 1}, {2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("cuts %v did not panic", cuts)
				}
			}()
			Coarsen(m, cuts, nil)
		}()
	}
}

func TestSeqAndRecSameLaw(t *testing.T) {
	// The two samplers implement the same distribution; compare their
	// empirical frequencies against each other on a small case.
	src := xrand.NewXoshiro256(13)
	rowM := []int64{3, 2}
	colM := []int64{2, 3}
	const trials = 40000
	seqCounts := make(map[string]int64)
	recCounts := make(map[string]int64)
	for i := 0; i < trials; i++ {
		seqCounts[SampleSeq(src, rowM, colM).String()]++
		recCounts[SampleRec(src, rowM, colM).String()]++
	}
	for key, sc := range seqCounts {
		rc := recCounts[key]
		diff := math.Abs(float64(sc-rc)) / trials
		if diff > 0.02 {
			t.Fatalf("samplers disagree at\n%sfreqs %.4f vs %.4f",
				key, float64(sc)/trials, float64(rc)/trials)
		}
	}
}

func TestSumVecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative margin did not panic")
		}
	}()
	SumVec([]int64{1, -2})
}

func TestEnumerateDeterministicOrder(t *testing.T) {
	var first, second []string
	Enumerate([]int64{2, 1}, []int64{1, 2}, func(m *Matrix) bool {
		first = append(first, m.String())
		return true
	})
	Enumerate([]int64{2, 1}, []int64{1, 2}, func(m *Matrix) bool {
		second = append(second, m.String())
		return true
	})
	if strings.Join(first, "|") != strings.Join(second, "|") {
		t.Fatal("enumeration order not deterministic")
	}
}

func BenchmarkSampleSeqP48(b *testing.B) {
	src := xrand.NewXoshiro256(1)
	margins := make([]int64, 48)
	for i := range margins {
		margins[i] = 10000000 // the paper's 480M/48 layout
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleSeq(src, margins, margins)
	}
}

func BenchmarkSampleRecP48(b *testing.B) {
	src := xrand.NewXoshiro256(1)
	margins := make([]int64, 48)
	for i := range margins {
		margins[i] = 10000000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleRec(src, margins, margins)
	}
}
