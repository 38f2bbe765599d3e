package engine

import (
	"testing"

	"randperm/internal/commat"
	"randperm/internal/stats"
	"randperm/internal/xrand"
)

func iota64(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i)
	}
	return v
}

func split(data []int64, sizes []int64) [][]int64 {
	blocks := make([][]int64, len(sizes))
	var off int64
	for i, s := range sizes {
		blocks[i] = data[off : off+s]
		off += s
	}
	return blocks
}

func TestScatterStarts(t *testing.T) {
	// 2x3 matrix with row sums {3, 4} and column sums {2, 1, 4}.
	a := commat.New(2, 3)
	copy(a.Row(0), []int64{1, 0, 2})
	copy(a.Row(1), []int64{1, 1, 2})
	colOff := []int64{0, 2, 3}
	st := ScatterStarts(a, colOff)
	want := [][]int64{{0, 2, 3}, {1, 2, 5}}
	for i := range want {
		for j := range want[i] {
			if st[i][j] != want[i][j] {
				t.Fatalf("starts[%d][%d] = %d, want %d", i, j, st[i][j], want[i][j])
			}
		}
	}
}

// TestPermuteBlocksValidity checks the output is a rearrangement for
// ragged layouts, shape changes, empty blocks, and blocks > items, under
// real concurrency (so `go test -race` exercises the scatter).
func TestPermuteBlocksValidity(t *testing.T) {
	cases := []struct {
		name     string
		inSizes  []int64
		outSizes []int64
	}{
		{"even", []int64{25, 25, 25, 25}, []int64{25, 25, 25, 25}},
		{"ragged", []int64{40, 1, 9, 50}, []int64{10, 60, 0, 30}},
		{"shape-change", []int64{50, 50}, []int64{20, 20, 20, 20, 20}},
		{"empty-blocks", []int64{0, 0, 7, 0}, []int64{0, 7, 0, 0}},
		{"single", []int64{100}, []int64{100}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var n int64
			for _, s := range c.inSizes {
				n += s
			}
			data := iota64(int(n))
			out, err := PermuteBlocks(split(data, c.inSizes), c.outSizes, Options{Workers: 4, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			seen := make([]bool, n)
			var total int64
			for j, b := range out {
				if int64(len(b)) != c.outSizes[j] {
					t.Fatalf("block %d has %d items, want %d", j, len(b), c.outSizes[j])
				}
				for _, v := range b {
					if seen[v] {
						t.Fatalf("duplicate value %d", v)
					}
					seen[v] = true
					total++
				}
			}
			if total != n {
				t.Fatalf("%d items out, want %d", total, n)
			}
		})
	}
}

func TestPermuteSliceValidity(t *testing.T) {
	for _, blocks := range []int{0, 1, 3, 16, 2000} {
		data := iota64(1000)
		out, err := PermuteSlice(data, blocks, Options{Seed: 7, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, len(data))
		for _, v := range out {
			if seen[v] {
				t.Fatalf("blocks=%d: duplicate %d", blocks, v)
			}
			seen[v] = true
		}
		for i, v := range data {
			if v != int64(i) {
				t.Fatalf("blocks=%d: input modified at %d", blocks, i)
			}
		}
	}
}

// TestDeterministicAcrossWorkers is the key scheduling-independence
// property: randomness is bound to blocks, so the exact output must not
// depend on the worker count.
func TestDeterministicAcrossWorkers(t *testing.T) {
	sizes := []int64{17, 0, 41, 22, 20}
	var ref [][]int64
	for _, w := range []int{1, 2, 4, 13} {
		out, err := PermuteBlocks(split(iota64(100), sizes), sizes, Options{Workers: w, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out
			continue
		}
		for j := range ref {
			for k := range ref[j] {
				if out[j][k] != ref[j][k] {
					t.Fatalf("workers=%d diverged at block %d index %d", w, j, k)
				}
			}
		}
	}
}

func TestBucketCountFor(t *testing.T) {
	cases := []struct{ n, cutoff, maxK, want int }{
		{1000000, 1 << 17, 256, 8},
		{200000, 1 << 17, 256, 2},
		{100 << 20, 1 << 17, 256, 256},
		{10, 2, 4, 4},
	}
	for _, c := range cases {
		if got := bucketCountFor(c.n, c.cutoff, c.maxK); got != c.want {
			t.Errorf("bucketCountFor(%d, %d, %d) = %d, want %d", c.n, c.cutoff, c.maxK, got, c.want)
		}
	}
}

func TestFillLabels(t *testing.T) {
	for _, k := range []int{2, 8, 64, 256} {
		lab := make([]uint8, 1000)
		counts := fillLabels(xrand.NewXoshiro256(5), lab, k)
		var sum int64
		for b, c := range counts {
			if c < 0 {
				t.Fatalf("k=%d: negative count at %d", k, b)
			}
			sum += c
		}
		if sum != int64(len(lab)) {
			t.Fatalf("k=%d: counts sum to %d, want %d", k, sum, len(lab))
		}
		for i, l := range lab {
			if int(l) >= k {
				t.Fatalf("k=%d: label %d out of range at %d", k, l, i)
			}
		}
	}
}

// TestPermuteFlatDeepRecursion forces the scatter path and the
// Rao-Sandelius recursion with tiny cutoffs and checks validity plus
// worker-schedule independence.
func TestPermuteFlatDeepRecursion(t *testing.T) {
	data := iota64(5000)
	var ref []int64
	for _, w := range []int{1, 4, 9} {
		out, err := permuteFlat(data, 4, Options{Workers: w, Seed: 77}, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, len(data))
		for _, v := range out {
			if seen[v] {
				t.Fatalf("workers=%d: duplicate %d", w, v)
			}
			seen[v] = true
		}
		if ref == nil {
			ref = out
			continue
		}
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("workers=%d diverged at %d", w, i)
			}
		}
	}
}

// TestPermuteFlatUniform chi-squares the scatter path (cutoff forced
// tiny so the label/bucket machinery, not the small-input Fisher-Yates,
// produces the result).
func TestPermuteFlatUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test skipped in -short mode")
	}
	const n = 4
	const trials = 24000
	nf := stats.Factorial(n)
	for _, maxK := range []int{2, 4} {
		counts := make([]int64, nf)
		for tr := 0; tr < trials; tr++ {
			out, err := permuteFlat(iota64(n), 2, Options{
				Workers: 2,
				Seed:    uint64(tr)*0x9E3779B97F4A7C15 + 3,
			}, 2, maxK)
			if err != nil {
				t.Fatal(err)
			}
			counts[stats.RankPermInt64(out)]++
		}
		res, err := stats.ChiSquareUniform(counts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject(0.0005) {
			t.Errorf("maxK=%d: scatter path non-uniform, %s", maxK, res)
		}
	}
}

func TestPermuteBlocksErrors(t *testing.T) {
	if _, err := PermuteBlocks[int64](nil, nil, Options{}); err == nil {
		t.Error("no error for zero blocks")
	}
	if _, err := PermuteBlocks([][]int64{{1, 2}}, []int64{3}, Options{}); err == nil {
		t.Error("no error for mismatched totals")
	}
	if _, err := PermuteBlocks([][]int64{{1, 2}}, []int64{3, -1}, Options{}); err == nil {
		t.Error("no error for negative target size")
	}
}

// TestPermuteBlocksUniform is the engine-level version of experiment E5:
// all n! permutations must be equally likely, including across a shape
// change.
func TestPermuteBlocksUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test skipped in -short mode")
	}
	const n = 4
	const trials = 24000
	nf := stats.Factorial(n)
	layouts := []struct{ in, out []int64 }{
		{[]int64{2, 2}, []int64{2, 2}},
		{[]int64{3, 1}, []int64{1, 3}},
		{[]int64{1, 1, 2}, []int64{4}},
	}
	for _, lay := range layouts {
		counts := make([]int64, nf)
		for tr := 0; tr < trials; tr++ {
			out, err := PermuteBlocks(split(iota64(n), lay.in), lay.out, Options{
				Workers: 2,
				Seed:    uint64(tr)*0x9E3779B97F4A7C15 + 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			var flat []int64
			for _, b := range out {
				flat = append(flat, b...)
			}
			counts[stats.RankPermInt64(flat)]++
		}
		res, err := stats.ChiSquareUniform(counts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject(0.0005) {
			t.Errorf("layout=%v: non-uniform, %s", lay, res)
		}
	}
}

// TestRouteBlockUniformSubsets pins the fused scatter pass to Algorithm
// 1's requirement: conditioned on the matrix row, the set of items a
// source block sends to each target must be a uniformly random subset.
// Routing 5 items through row {2, 3}, each of the C(5,2) = 10 possible
// target-0 subsets must be equally likely.
func TestRouteBlockUniformSubsets(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test skipped in -short mode")
	}
	const n = 5
	const trials = 24000
	row := []int64{2, 3}
	starts := []int64{0, 2}
	counts := make([]int64, 10)
	for tr := 0; tr < trials; tr++ {
		flat := make([]int64, n)
		routeBlock(xrand.NewXoshiro256(uint64(tr)+1), iota64(n), row, starts, flat)
		counts[stats.RankCombInt64(flat[0:2], n)]++
	}
	res, err := stats.ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.0005) {
		t.Errorf("routeBlock target subsets non-uniform: %s", res)
	}
}

// TestXoshiroBoundedMethodsMatch pins the concrete bounded-draw methods
// used by the hot loops to the interface-based free functions.
func TestXoshiroBoundedMethodsMatch(t *testing.T) {
	a, b := xrand.NewXoshiro256(3), xrand.NewXoshiro256(3)
	for n := uint64(1); n < 2000; n += 17 {
		if got, want := a.Uint64n(n), xrand.Uint64n(b, n); got != want {
			t.Fatalf("Uint64n(%d): method %d != function %d", n, got, want)
		}
		if got, want := a.Intn(int(n)), xrand.Intn(b, int(n)); got != want {
			t.Fatalf("Intn(%d): method %d != function %d", n, got, want)
		}
		if got, want := a.Int64n(int64(n)), xrand.Int64n(b, int64(n)); got != want {
			t.Fatalf("Int64n(%d): method %d != function %d", n, got, want)
		}
	}
}
