package engine

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestPoolFor checks the basic parallel-for contract: every index runs
// exactly once, at every worker count, including n smaller and much
// larger than the pool.
func TestPoolFor(t *testing.T) {
	for _, w := range []int{1, 2, 4, 13} {
		pool := NewPool(w, nil)
		if pool.Workers() != w {
			t.Fatalf("Workers() = %d, want %d", pool.Workers(), w)
		}
		for _, n := range []int{0, 1, w - 1, 100} {
			if n < 0 {
				continue
			}
			hits := make([]atomic.Int64, n)
			if err := pool.For(n, func(i int) { hits[i].Add(1) }); err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", w, n, i, c)
				}
			}
		}
		pool.Close()
	}
}

// TestPoolPanic pins the panic contract inherited from the old transient
// parallelFor: a panicking task surfaces as an error naming the task,
// the remaining tasks still run, and — the new pool-specific part — the
// worker goroutines survive, so the same pool is reusable for the next
// phase.
func TestPoolPanic(t *testing.T) {
	for _, w := range []int{1, 4} {
		pool := NewPool(w, nil)
		var ran atomic.Int64
		err := pool.For(8, func(i int) {
			if i == 3 {
				panic("boom")
			}
			ran.Add(1)
		})
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("workers=%d: got %v, want captured panic", w, err)
		}
		if ran.Load() != 7 {
			t.Fatalf("workers=%d: %d tasks ran after panic, want 7", w, ran.Load())
		}
		// The pool must still work: a panic kills the task, not the worker.
		if err := pool.For(4, func(int) {}); err != nil {
			t.Fatalf("workers=%d: pool unusable after panic: %v", w, err)
		}
		pool.Close()
	}
}
