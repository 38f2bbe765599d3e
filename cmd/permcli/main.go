// Command permcli shuffles data from the command line with the paper's
// parallel algorithm.
//
// With -n it prints a uniform random permutation of 0..n-1, one value per
// line; without it, it shuffles the lines of standard input. -p selects
// the decomposition width, -backend the execution engine (sim, shmem,
// inplace, bijective or cluster — the same engines the library and permd
// expose), -alg the matrix sampling algorithm of the sim backend (opt,
// log or seq) and -seed makes runs reproducible.
//
//	permcli -n 10 -p 4 -seed 7
//	permcli -n 1000000 -backend inplace -seed 7   # fast engine, same API
//	shuf somefile | permcli -p 8                  # re-shuffle lines, uniformly
//
// The workload subcommands compute locally what the permd workload
// endpoints serve, byte-for-byte (see workload.go):
//
//	permcli assign -seed 7 -n 1000000 -id 12345 -spec control:9,treat:1
//	permcli epochs -seed 7 -n 50000 -epoch 3 -len 5
//
// The cluster backend prints, in one process, exactly the bytes an
// N-node permd cluster serves for the same (seed, n, p) — which is how
// CI verifies a live cluster against the library (see OPERATIONS.md):
//
//	permcli -n 1000 -backend cluster -p 8 -seed 7
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"randperm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main behind testable plumbing: parse args, shuffle, print.
// The workload subcommands (workload.go) dispatch on the first
// argument; everything else is the flag-driven shuffle path.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "assign":
			return runAssign(args[1:], stdout, stderr)
		case "epochs":
			return runEpochs(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("permcli", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n       = fs.Int64("n", 0, "emit a permutation of 0..n-1 instead of reading stdin")
		p       = fs.Int("p", 8, "decomposition width (simulated processors / blocks)")
		seed    = fs.Uint64("seed", 1, "random seed")
		alg     = fs.String("alg", "opt", "matrix algorithm for -backend sim: opt, log or seq")
		backend = fs.String("backend", "sim", "execution backend: sim, shmem, inplace, bijective or cluster")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	matrix := randperm.MatrixAlg(-1)
	for a := randperm.MatrixOpt; a <= randperm.MatrixSeq; a++ {
		if a.String() == *alg {
			matrix = a
		}
	}
	if matrix < 0 {
		fmt.Fprintf(stderr, "permcli: unknown -alg %q (want opt, log or seq)\n", *alg)
		return 2
	}
	be, err := randperm.ParseBackend(*backend)
	if err != nil {
		fmt.Fprintln(stderr, "permcli:", err)
		return 2
	}
	opt := randperm.Options{Procs: *p, Seed: *seed, Matrix: matrix, Backend: be}

	out := bufio.NewWriter(stdout)
	defer out.Flush()

	if *n > 0 {
		data := make([]int64, *n)
		for i := range data {
			data[i] = int64(i)
		}
		shuffled, _, err := randperm.ParallelShuffle(data, opt)
		if err != nil {
			fmt.Fprintln(stderr, "permcli:", err)
			return 1
		}
		for _, v := range shuffled {
			fmt.Fprintln(out, v)
		}
		return 0
	}

	var lines []string
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(stderr, "permcli: reading stdin:", err)
		return 1
	}
	if len(lines) == 0 {
		return 0
	}
	procs := opt.Procs
	if procs > len(lines) {
		procs = len(lines)
	}
	opt.Procs = procs
	shuffled, _, err := randperm.ParallelShuffle(lines, opt)
	if err != nil {
		fmt.Fprintln(stderr, "permcli:", err)
		return 1
	}
	for _, l := range shuffled {
		fmt.Fprintln(out, l)
	}
	return 0
}
