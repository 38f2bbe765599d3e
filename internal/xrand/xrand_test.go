package xrand

import (
	"math"
	"testing"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(12345)
	b := NewSplitMix64(12345)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSplitMix64SeedsDiffer(t *testing.T) {
	a := NewSplitMix64(1)
	b := NewSplitMix64(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitMix64Reseed(t *testing.T) {
	a := NewSplitMix64(7)
	first := a.Uint64()
	a.Uint64()
	a.Seed(7)
	if got := a.Uint64(); got != first {
		t.Fatalf("reseed did not reset the sequence: got %d want %d", got, first)
	}
}

func TestSplitMix64ZeroSeedUsable(t *testing.T) {
	z := NewSplitMix64(0)
	if z.Uint64() == 0 && z.Uint64() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
}

func TestXoshiroDeterministic(t *testing.T) {
	a := NewXoshiro256(99)
	b := NewXoshiro256(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestXoshiroZeroSeedValid(t *testing.T) {
	x := NewXoshiro256(0)
	var orAll uint64
	for i := 0; i < 64; i++ {
		orAll |= x.Uint64()
	}
	if orAll == 0 {
		t.Fatal("zero seed yields a stuck generator")
	}
}

func TestXoshiroClone(t *testing.T) {
	a := NewXoshiro256(5)
	a.Uint64()
	c := a.Clone()
	for i := 0; i < 100; i++ {
		if a.Uint64() != c.Uint64() {
			t.Fatalf("clone diverged at step %d", i)
		}
	}
	// Advancing the clone must not affect the original.
	before := a.Clone()
	c.Uint64()
	for i := 0; i < 10; i++ {
		if a.Uint64() != before.Uint64() {
			t.Fatal("advancing a clone perturbed the original")
		}
	}
}

func TestXoshiroJumpDisjoint(t *testing.T) {
	// Outputs after a jump must not replay the pre-jump prefix.
	a := NewXoshiro256(11)
	prefix := make(map[uint64]bool)
	for i := 0; i < 4096; i++ {
		prefix[a.Uint64()] = true
	}
	b := NewXoshiro256(11)
	b.Jump()
	collisions := 0
	for i := 0; i < 4096; i++ {
		if prefix[b.Uint64()] {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("jumped stream replayed %d values of the base stream", collisions)
	}
}

func TestXoshiroLongJumpDiffersFromJump(t *testing.T) {
	a := NewXoshiro256(13)
	a.Jump()
	b := NewXoshiro256(13)
	b.LongJump()
	if a.Uint64() == b.Uint64() {
		t.Fatal("Jump and LongJump landed on the same state")
	}
}

func TestNewStreamsIndependentAndStable(t *testing.T) {
	s1 := NewStreams(21, 4)
	s2 := NewStreams(21, 8)
	// Stream i must not depend on k.
	for i := 0; i < 4; i++ {
		for j := 0; j < 32; j++ {
			if s1[i].Uint64() != s2[i].Uint64() {
				t.Fatalf("stream %d depends on the stream count", i)
			}
		}
	}
	// Distinct streams must differ immediately.
	v := make(map[uint64]bool)
	for i := 4; i < 8; i++ {
		x := s2[i].Uint64()
		if v[x] {
			t.Fatalf("streams share outputs")
		}
		v[x] = true
	}
}

func TestNewLongStreamsIndependentAndStable(t *testing.T) {
	s1 := NewLongStreams(21, 2)
	s2 := NewLongStreams(21, 4)
	// Stream i must not depend on k.
	for i := 0; i < 2; i++ {
		for j := 0; j < 32; j++ {
			if s1[i].Uint64() != s2[i].Uint64() {
				t.Fatalf("long stream %d depends on the stream count", i)
			}
		}
	}
	// Long streams must differ from each other and from the Jump-family
	// streams of the same seed (the two families coexist: blocks on Jump
	// streams, fresh-mode epoch keys on LongJump streams).
	v := make(map[uint64]bool)
	for _, s := range NewStreams(21, 8) {
		v[s.Uint64()] = true
	}
	for i, s := range NewLongStreams(21, 4) {
		x := s.Uint64()
		if v[x] {
			t.Fatalf("long stream %d collides with another stream head", i)
		}
		v[x] = true
	}
}

func TestCounting(t *testing.T) {
	c := NewCounting(NewSplitMix64(3))
	if c.Count() != 0 {
		t.Fatal("fresh counter not zero")
	}
	for i := 0; i < 17; i++ {
		c.Uint64()
	}
	if c.Count() != 17 {
		t.Fatalf("count = %d, want 17", c.Count())
	}
	c.Reset()
	if c.Count() != 0 {
		t.Fatal("reset did not zero the counter")
	}
	if c.Unwrap() == nil {
		t.Fatal("unwrap lost the source")
	}
}

func TestCountingTransparent(t *testing.T) {
	// Counting must not alter the stream.
	raw := NewSplitMix64(8)
	wrapped := NewCounting(NewSplitMix64(8))
	for i := 0; i < 100; i++ {
		if raw.Uint64() != wrapped.Uint64() {
			t.Fatal("counting wrapper altered the stream")
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	src := NewXoshiro256(17)
	for _, n := range []uint64{1, 2, 3, 7, 8, 100, 1 << 33, math.MaxUint64} {
		for i := 0; i < 2000; i++ {
			if v := Uint64n(src, n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	Uint64n(NewSplitMix64(1), 0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			Intn(NewSplitMix64(1), n)
		}()
	}
}

func TestUint64nUniform(t *testing.T) {
	// Coarse uniformity: chi-square by hand over 10 cells.
	src := NewXoshiro256(23)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[Uint64n(src, n)]++
	}
	exp := float64(trials) / n
	stat := 0.0
	for _, c := range counts {
		d := float64(c) - exp
		stat += d * d / exp
	}
	// df=9; 99.9th percentile ~ 27.9.
	if stat > 27.9 {
		t.Fatalf("Uint64n looks non-uniform: chi2 = %.1f", stat)
	}
}

func TestFloat64Range(t *testing.T) {
	src := NewXoshiro256(29)
	for i := 0; i < 100000; i++ {
		f := Float64(src)
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	// Force the zero path with a source that returns 0 first.
	s := &stubSource{vals: []uint64{0, 0, 1 << 60}}
	f := Float64Open(s)
	if f == 0 {
		t.Fatal("Float64Open returned 0")
	}
	if f >= 1 {
		t.Fatalf("Float64Open = %g out of (0,1)", f)
	}
}

type stubSource struct {
	vals []uint64
	i    int
}

func (s *stubSource) Uint64() uint64 {
	v := s.vals[s.i%len(s.vals)]
	s.i++
	return v
}

func TestShufflePreservesMultiset(t *testing.T) {
	src := NewXoshiro256(31)
	for _, n := range []int{0, 1, 2, 3, 17, 1000} {
		x := make([]int, n)
		for i := range x {
			x[i] = i
		}
		Shuffle(src, x)
		seen := make([]bool, n)
		for _, v := range x {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("n=%d: shuffle broke the multiset", n)
			}
			seen[v] = true
		}
	}
}

func TestPermValid(t *testing.T) {
	src := NewXoshiro256(37)
	for _, n := range []int{0, 1, 2, 5, 64} {
		p := Perm(src, n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleUniformSmall(t *testing.T) {
	// All 24 permutations of 4 elements, chi-square against uniform.
	src := NewXoshiro256(41)
	const trials = 48000
	counts := make(map[[4]int]int)
	for tr := 0; tr < trials; tr++ {
		x := []int{0, 1, 2, 3}
		Shuffle(src, x)
		var k [4]int
		copy(k[:], x)
		counts[k]++
	}
	if len(counts) != 24 {
		t.Fatalf("only %d of 24 permutations observed", len(counts))
	}
	exp := float64(trials) / 24
	stat := 0.0
	for _, c := range counts {
		d := float64(c) - exp
		stat += d * d / exp
	}
	// df=23; 99.9th percentile ~ 49.7.
	if stat > 49.7 {
		t.Fatalf("Shuffle looks non-uniform: chi2 = %.1f", stat)
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	src := NewXoshiro256(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = src.Uint64()
	}
	_ = sink
}

func BenchmarkUint64n(b *testing.B) {
	src := NewXoshiro256(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = Uint64n(src, 1000003)
	}
	_ = sink
}

func BenchmarkShuffle1K(b *testing.B) {
	src := NewXoshiro256(1)
	x := make([]int64, 1024)
	b.SetBytes(1024 * 8)
	for i := 0; i < b.N; i++ {
		Shuffle(src, x)
	}
}

// TestLongStreamsDisjointFromJumpStreams: the long-jump family must not
// collide with the per-block algorithm streams (jump family) derived
// from the same seed — the property that lets one seed drive both.
func TestLongStreamsDisjointFromJumpStreams(t *testing.T) {
	const seed = 7
	blockHeads := map[uint64]bool{}
	for _, s := range NewStreams(seed, 64) {
		blockHeads[s.Uint64()] = true
	}
	for i, s := range NewLongStreams(seed, 16) {
		if blockHeads[s.Uint64()] {
			t.Fatalf("long stream %d head collides with a block stream head", i)
		}
	}
}
