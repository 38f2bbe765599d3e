package xrand

import "math/bits"

// Xoshiro256 implements the xoshiro256++ generator of Blackman and Vigna
// ("Scrambled linear pseudorandom number generators", TOMS 2021).
//
// It is the default generator of the repository: fast (sub-nanosecond per
// draw), equidistributed in 4 dimensions, period 2^256-1, and equipped with
// a Jump function that advances the stream by 2^128 steps, which NewStreams
// uses to hand every simulated processor a disjoint substream.
//
// Use NewXoshiro256 to construct one; the zero value would be the all-zero
// state, which is the single invalid state of the generator, so the
// constructor re-seeds via SplitMix64 and can never produce it.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator whose 256-bit state is expanded from
// seed with SplitMix64, following the author-recommended seeding procedure.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	x := &Xoshiro256{}
	x.Seed(seed)
	return x
}

// Seed re-initializes the state from a single 64-bit seed.
func (x *Xoshiro256) Seed(seed uint64) {
	sm := NewSplitMix64(seed)
	for i := range x.s {
		x.s[i] = sm.Uint64()
	}
	// The all-zero state is invalid; SplitMix64 output makes it
	// astronomically unlikely, but guard anyway so Seed is total.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9E3779B97F4A7C15
	}
}

// Uint64 returns the next value of the sequence.
func (x *Xoshiro256) Uint64() uint64 {
	s := &x.s
	result := bits.RotateLeft64(s[0]+s[3], 23) + s[0]

	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)

	return result
}

// Fill writes the next len(buf) values of the sequence into buf — the
// exact words len(buf) successive Uint64 calls would return, in order.
// The batch form exists for the engines' hot loops: the 256-bit state
// lives in registers for the whole block instead of round-tripping
// through memory per draw, and splitting generation from consumption
// breaks the serial dependency chain between the generator state and
// whatever data-dependent work (a bounded reduction, a scatter write)
// each draw feeds. Byte-compatible with Uint64 by construction, so
// batched consumers preserve the draw sequence of their serial
// references (pinned by TestFillMatchesUint64).
func (x *Xoshiro256) Fill(buf []uint64) {
	s0, s1, s2, s3 := x.s[0], x.s[1], x.s[2], x.s[3]
	for i := range buf {
		buf[i] = bits.RotateLeft64(s0+s3, 23) + s0
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	x.s[0], x.s[1], x.s[2], x.s[3] = s0, s1, s2, s3
}

// jumpTable is the polynomial for the 2^128-step jump, from the reference
// implementation (xoshiro256plusplus.c).
var jumpTable = [4]uint64{
	0x180EC6D33CFD0ABA, 0xD5A61266F0C9392C,
	0xA9582618E03FC9AA, 0x39ABDC4529B1661C,
}

// longJumpTable is the polynomial for the 2^192-step jump.
var longJumpTable = [4]uint64{
	0x76E15D3EFEFDCBBF, 0xC5004E441C522FB3,
	0x77710069854EE241, 0x39109BB02ACBE635,
}

func (x *Xoshiro256) jumpBy(table *[4]uint64) {
	var s0, s1, s2, s3 uint64
	for _, jp := range table {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				s0 ^= x.s[0]
				s1 ^= x.s[1]
				s2 ^= x.s[2]
				s3 ^= x.s[3]
			}
			x.Uint64()
		}
	}
	x.s[0], x.s[1], x.s[2], x.s[3] = s0, s1, s2, s3
}

// Jump advances the generator by 2^128 steps. 2^128 non-overlapping
// substreams of length 2^128 each can be generated by repeated jumps.
func (x *Xoshiro256) Jump() { x.jumpBy(&jumpTable) }

// LongJump advances the generator by 2^192 steps, for splitting at a
// coarser granularity (e.g. one LongJump per machine, Jumps per processor).
func (x *Xoshiro256) LongJump() { x.jumpBy(&longJumpTable) }

// Clone returns an independent copy of the generator in its current state.
func (x *Xoshiro256) Clone() *Xoshiro256 {
	c := *x
	return &c
}

// Uint64n is Uint64n(x, n) on the concrete generator: same Lemire
// multiply-shift rejection, but with direct calls instead of interface
// dispatch, for the shared-memory engine's per-item hot loops.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	if n&(n-1) == 0 {
		return x.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(x.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(x.Uint64(), n)
		}
	}
	return hi
}

// Int64n is Int64n(x, n) without the interface indirection.
func (x *Xoshiro256) Int64n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int64n with n <= 0")
	}
	return int64(x.Uint64n(uint64(n)))
}

// Intn is Intn(x, n) without the interface indirection.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(x.Uint64n(uint64(n)))
}

var (
	_ Source = (*Xoshiro256)(nil)
	_ Seeder = (*Xoshiro256)(nil)
	_ Jumper = (*Xoshiro256)(nil)
)

// NewStreams derives k statistically independent generators from one seed.
// Stream i is the base generator jumped i times by 2^128 steps, so the
// streams never overlap for any realistic draw count. The result is
// deterministic in (seed, k) and stream i does not depend on k, so growing
// a machine keeps the per-processor randomness stable.
func NewStreams(seed uint64, k int) []*Xoshiro256 {
	base := NewXoshiro256(seed)
	streams := make([]*Xoshiro256, k)
	for i := 0; i < k; i++ {
		streams[i] = base.Clone()
		base.Jump()
	}
	return streams
}

// NewLongStreams derives k generators separated by 2^192-step long jumps:
// stream i is the base generator long-jumped i+1 times. Because the long
// jump is 2^64 times the span of Jump, these streams are disjoint from any
// realistic number of NewStreams substreams of the same seed — the two
// families can safely coexist (NewStreams for per-block algorithm streams,
// NewLongStreams for the fresh-mode epoch keys of internal/workload, which
// walk the same LongJump sequence). Deterministic in (seed, k); stream i
// does not depend on k.
func NewLongStreams(seed uint64, k int) []*Xoshiro256 {
	base := NewXoshiro256(seed)
	streams := make([]*Xoshiro256, k)
	for i := 0; i < k; i++ {
		base.LongJump()
		streams[i] = base.Clone()
	}
	return streams
}
