package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrCanceled is the error a cancelable Pool returns from For when the
// cancel channel closes before the range is exhausted: tasks not yet
// claimed are abandoned, tasks already running finish their current
// call. Callers that carry a context should map it onto ctx.Err(); the
// engine layer has no context of its own.
var ErrCanceled = errors.New("engine: canceled")

// Pool is a fixed set of long-lived worker goroutines that the
// shared-memory backends dispatch their phases onto. One engine
// invocation creates one Pool and runs every parallel phase on it, so a
// multi-phase algorithm (scatter, then offsets, then local shuffles; or
// leaf shuffles, then log p merge rounds) pays the goroutine spawn cost
// once instead of once per phase.
//
// Determinism contract: work scheduled with For carries its randomness
// in per-task state (the backends bind RNG streams to blocks and merge
// nodes, never to workers), so the result is reproducible in the seed
// and independent of the worker count.
//
// A Pool must be released with Close. It is safe for one goroutine at a
// time to call For; the pool itself never outlives the engine call that
// created it.
type Pool struct {
	jobs   []chan *poolJob // one channel per worker, jobs are broadcast
	wg     sync.WaitGroup  // worker goroutines
	cancel <-chan struct{} // nil disables cancellation
}

// NewPool starts a pool of `workers` goroutines (minimum 1). When cancel
// is closed, every in-flight For stops claiming new tasks and returns
// ErrCanceled. Cancellation is checked between tasks, so its granularity
// is one task (one block, one merge node, one index page) — a closed
// channel never interrupts a task mid-run, which keeps the determinism
// contract intact for the tasks that did complete. A nil channel
// disables cancellation entirely.
func NewPool(workers int, cancel <-chan struct{}) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{jobs: make([]chan *poolJob, workers), cancel: cancel}
	p.wg.Add(workers)
	for w := range p.jobs {
		ch := make(chan *poolJob, 1)
		p.jobs[w] = ch
		go func() {
			defer p.wg.Done()
			for job := range ch {
				job.run()
				job.wg.Done()
			}
		}()
	}
	return p
}

// Workers returns the number of worker goroutines.
func (p *Pool) Workers() int { return len(p.jobs) }

// Close shuts the workers down and blocks until they exit. The pool must
// not be used afterwards.
func (p *Pool) Close() {
	for _, ch := range p.jobs {
		close(ch)
	}
	p.wg.Wait()
}

// For runs fn(0) .. fn(n-1) across the pool's workers (dynamic
// load-balanced scheduling) and blocks until every call returns. A panic
// in any call is captured and returned as an error — the first one
// recorded wins, mirroring the contract of pro.Machine.Run — and the
// remaining tasks still run to completion, so the pool stays usable.
func (p *Pool) For(n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	job := &poolJob{n: n, fn: fn, cancel: p.cancel}
	job.wg.Add(len(p.jobs))
	for _, ch := range p.jobs {
		ch <- job
	}
	job.wg.Wait()
	return job.first
}

// poolJob is one parallel-for: workers race on the atomic index counter
// until the range is exhausted.
type poolJob struct {
	n      int
	fn     func(i int)
	cancel <-chan struct{}
	next   atomic.Int64
	wg     sync.WaitGroup
	mu     sync.Mutex
	first  error
}

// canceled reports whether the job's cancel channel has closed. A nil
// channel never reports canceled.
func (j *poolJob) canceled() bool {
	select {
	case <-j.cancel:
		return true
	default:
		return false
	}
}

func (j *poolJob) run() {
	for {
		if j.canceled() {
			j.mu.Lock()
			if j.first == nil {
				j.first = ErrCanceled
			}
			j.mu.Unlock()
			return
		}
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		if err := j.protect(i); err != nil {
			j.mu.Lock()
			if j.first == nil {
				j.first = err
			}
			j.mu.Unlock()
		}
	}
}

func (j *poolJob) protect(i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: task %d panicked: %v", i, r)
		}
	}()
	j.fn(i)
	return nil
}
