package main

import (
	"fmt"
	"runtime"
	"time"

	"randperm"
)

// The shuffle workload: in-process randperm.ParallelShuffle of 2^24
// int64 at p = 8 on each of the five backends in turn, a fresh seed per
// call. The engines do all the work and the service, wire and cluster
// layers none, so an engine change shows here and a codec or service
// change must not. 2^24 words (128 MiB per copy, permd's default MaxN)
// exceed a 4 MiB L2 but fit a 300 MiB shared L3.
//
// One operation is a round: one call on each backend. op_ms is the
// median round; items_per_s is the items shuffled per second of call
// time. Every output is checked to be a permutation of its input,
// outside the timed calls.
const (
	shuffleN = 1 << 24
	shuffleP = 8
)

var shuffleBackends = []randperm.Backend{
	randperm.BackendSim,
	randperm.BackendSharedMem,
	randperm.BackendInPlace,
	randperm.BackendBijective,
	randperm.BackendCluster,
}

// shuffleInput is the workload's input: shuffleN consecutive values
// from a seed-chosen offset.
type shuffleInput struct {
	data []int64
	off  int64
}

func runShuffle(e *env) (*result, error) {
	r := &result{}
	seen := make([]uint64, shuffleN/64)
	in, err := timeSetup(r, func() (*shuffleInput, error) {
		in := &shuffleInput{data: make([]int64, shuffleN), off: int64(mix(e.seed, 1, 0) >> 24)}
		for i := range in.data {
			in.data[i] = in.off + int64(i)
		}
		// Warm-up: one call grows the heap to its working size.
		out, _, err := randperm.ParallelShuffle(in.data, randperm.Options{Procs: shuffleP, Seed: mix(e.seed, 2, 0), Backend: randperm.BackendSharedMem})
		if err != nil {
			return nil, err
		}
		if !isPermutationOf(out, in.off, seen) {
			return nil, fmt.Errorf("shuffle warm-up: output is not a permutation of its input")
		}
		return in, nil
	}, func(*shuffleInput) {})
	if err != nil {
		return nil, err
	}
	per := make([]*series, len(shuffleBackends))
	for i, b := range shuffleBackends {
		per[i] = r.add(b.String()+"_ns_per_item", "ns")
	}
	mem := startMem()
	began := time.Now()
	for round := int64(0); time.Since(began) < e.dur || round == 0; round++ {
		rid, rstart := e.tr.begin()
		var roundNs time.Duration
		ok := true
		for i, b := range shuffleBackends {
			opt := randperm.Options{Procs: shuffleP, Seed: mix(e.seed, 3, uint64(round)*8+uint64(i)), Backend: b}
			var out []int64
			var err error
			runtime.GC() // every call starts from the same heap: the input and nothing else
			d := e.tr.call(rid, round, "randperm.ParallelShuffle/"+b.String(), func() {
				out, _, err = randperm.ParallelShuffle(in.data, opt)
			})
			r.attempted++
			r.itemsAll += shuffleN
			good := err == nil
			e.tr.call(rid, round, "check.permutation", func() {
				good = good && isPermutationOf(out, in.off, seen)
			})
			if !good {
				r.failed++
				ok = false
				continue
			}
			roundNs += d
			per[i].vals = append(per[i].vals, float64(d.Nanoseconds())/shuffleN)
		}
		e.tr.end(rid, 0, round, "shuffle.round", rstart)
		if ok {
			r.items += int64(len(shuffleBackends)) * shuffleN
			r.busy += roundNs
			r.opMs = append(r.opMs, float64(roundNs.Nanoseconds())/1e6)
		}
	}
	mem.stop(r)
	r.note("n", shuffleN)
	r.note("p", shuffleP)
	return r, nil
}

// isPermutationOf reports whether out holds each of off .. off+len(seen)*64-1
// exactly once; seen is scratch space of one bit per value.
func isPermutationOf(out []int64, off int64, seen []uint64) bool {
	clear(seen)
	n := uint64(len(seen) * 64)
	if uint64(len(out)) != n {
		return false
	}
	for _, v := range out {
		u := uint64(v - off)
		if u >= n {
			return false
		}
		w, bit := u>>6, uint64(1)<<(u&63)
		if seen[w]&bit != 0 {
			return false
		}
		seen[w] |= bit
	}
	return true
}
